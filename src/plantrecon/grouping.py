"""Rule-based functional grouping of PLC code elements into a graph fragment.

The rule set is deliberately small and isolated here so it can be swapped:

* R1 — every organization block and FB instance becomes a SoftwareComponent.
* R2 — a Read tag access becomes a Reads edge, a Write access a Writes edge.
* R3 — ``%I`` tags become Sensor nodes, ``%Q`` tags Actuator nodes.
* R4 — a field device is contained in the group of its sole accessing
  component, or in the lowest common ancestor group of all accessors.
  Tags accessed by no block land in the top group, with a warning.
* R5 — the call graph induces the FunctionalGroup containment: one group
  per call node, placed under the lowest common ancestor of its callers'
  groups (``lowest_common_ancestor``, as in R4), so a called-once
  instance lands under its caller's group and a shared one under the
  groups' LCA. OBs and uncalled instances land in the top group. Groups
  are built in ``CallTree.order``, the call tree's topological order, so
  every caller's group exists before its callees' groups. A call node's
  group id is ``FunctionalGroup:<project>/<block>``: block names are
  unique, and each such id is longer than the top group's
  ``FunctionalGroup:<project>``, so no two ids collide.

None of the rules look at names, so the grouping is invariant under a
consistent renaming of blocks and tags.
"""

from __future__ import annotations

import logging

from .graph import (
    Edge,
    EdgeKind,
    Node,
    NodeKind,
    PropertyGraph,
    Provenance,
    lowest_common_ancestor,
    node_id,
)
from .plc import BlockType, CallTree, IoTag, PlcProject

logger = logging.getLogger(__name__)

_DOMAIN = {
    NodeKind.SENSOR: "electric",
    NodeKind.ACTUATOR: "electric",
    NodeKind.CHANNEL: "electric",
    NodeKind.IO_DEVICE: "electric",
    NodeKind.PLC: "electric",
    NodeKind.SOFTWARE_COMPONENT: "software",
    NodeKind.FUNCTION_BLOCK_TYPE: "software",
    NodeKind.DATA_BLOCK: "software",
    NodeKind.FUNCTIONAL_GROUP: "software",
}


def _node(kind: NodeKind, name: str, nid: str | None = None, **labels) -> Node:
    lbl = {"domain": _DOMAIN[kind]} if kind in _DOMAIN else {}
    lbl.update(labels)
    return Node(nid or node_id(kind, name), kind, name, lbl, Provenance.PLC_ANALYSIS)


def field_device_kind(tag: IoTag) -> NodeKind:
    """R3: the node kind of a tag's field device, in both analyses."""
    return NodeKind.SENSOR if tag.is_input else NodeKind.ACTUATOR


def functional_grouping(project: PlcProject, tree: CallTree) -> PropertyGraph:
    """Emit the software / field-device / hardware fragment for a project."""
    g = PropertyGraph()

    root_id = node_id(NodeKind.SYSTEM_ROOT, project.name)
    g.add_node(_node(NodeKind.SYSTEM_ROOT, project.name, root_id))
    top_id = node_id(NodeKind.FUNCTIONAL_GROUP, project.name)
    g.add_node(_node(NodeKind.FUNCTIONAL_GROUP, project.name, top_id))
    g.add_edge(Edge(EdgeKind.CONTAINS, root_id, top_id))

    uncalled = [n for n in tree.nodes if not tree.parents[n] and n not in tree.roots]
    if uncalled:
        logger.warning("instances never called, attached to top group: %s", uncalled)

    # R5: one FunctionalGroup per call node, under its callers' groups' LCA.
    group_of = {n: node_id(NodeKind.FUNCTIONAL_GROUP, f"{project.name}/{n}") for n in tree.nodes}
    for name in tree.order:
        parent = lowest_common_ancestor(g, [group_of[c] for c in tree.parents[name]]) or top_id
        g.add_node(_node(NodeKind.FUNCTIONAL_GROUP, name, group_of[name]))
        g.add_edge(Edge(EdgeKind.CONTAINS, parent, group_of[name]))

    # R1: software components, their backing data blocks and types.
    blocks = project.block_map()
    sc_of: dict[str, str] = {}
    fbt_ids: dict[str, str] = {}
    for block in sorted(project.blocks, key=lambda b: b.name):
        if block.block_type is BlockType.FUNCTION_BLOCK_TYPE:
            fid = node_id(NodeKind.FUNCTION_BLOCK_TYPE, block.name)
            g.add_node(_node(NodeKind.FUNCTION_BLOCK_TYPE, block.name, fid))
            g.add_edge(Edge(EdgeKind.CONTAINS, root_id, fid))
            fbt_ids[block.name] = fid
    for name in tree.nodes:
        sid = node_id(NodeKind.SOFTWARE_COMPONENT, name)
        extra = {"shared": True} if name in tree.shared else {}
        g.add_node(_node(NodeKind.SOFTWARE_COMPONENT, name, sid, **extra))
        g.add_edge(Edge(EdgeKind.CONTAINS, group_of[name], sid))
        sc_of[name] = sid
        block = blocks[name]
        if block.block_type is BlockType.INSTANCE_DATA_BLOCK:
            did = node_id(NodeKind.DATA_BLOCK, name)
            g.add_node(_node(NodeKind.DATA_BLOCK, name, did))
            g.add_edge(Edge(EdgeKind.CONTAINS, group_of[name], did))
            g.add_edge(Edge(EdgeKind.BACKED_BY, sid, did))
            g.add_edge(Edge(EdgeKind.TYPED_BY, sid, fbt_ids[block.of_type]))
    for caller, callee in tree.call_edges:
        g.add_edge(Edge(EdgeKind.CALLS, sc_of[caller], sc_of[callee]))

    # Hardware: PLC under root, IO devices under the PLC, channels under
    # their device.
    plc_id = ""
    for dev in sorted(project.devices, key=lambda d: d.id):
        if dev.device_type.value == "Plc":
            plc_id = node_id(NodeKind.PLC, dev.id)
            g.add_node(_node(NodeKind.PLC, dev.name, plc_id, deviceType=dev.device_type.value))
            g.add_edge(Edge(EdgeKind.CONTAINS, root_id, plc_id))
    for dev in sorted(project.devices, key=lambda d: d.id):
        if dev.device_type.value == "Plc":
            continue
        dev_id = node_id(NodeKind.IO_DEVICE, dev.id)
        g.add_node(_node(NodeKind.IO_DEVICE, dev.name, dev_id, deviceType=dev.device_type.value))
        g.add_edge(Edge(EdgeKind.CONTAINS, plc_id, dev_id))
        for ch in range(dev.channel_count):
            ch_id = node_id(NodeKind.CHANNEL, f"{dev.id}/{ch}")
            g.add_node(_node(NodeKind.CHANNEL, f"{dev.id}:{ch}", ch_id, channelIndex=ch))
            g.add_edge(Edge(EdgeKind.CONTAINS, dev_id, ch_id))

    # R2 + R3 + R4: field devices, access edges, containment placement.
    accessors_of: dict[str, set[str]] = {}
    for owner, accesses in tree.accesses.items():
        for access in accesses:
            accessors_of.setdefault(access.tag, set()).add(owner)
    for tag in sorted(project.tags, key=lambda t: t.name):
        kind = field_device_kind(tag)
        tid = node_id(kind, tag.name)
        g.add_node(
            _node(
                kind,
                tag.name,
                tid,
                address=tag.address,
                channelIndex=tag.channel_index,
                dataType=tag.data_type.value,
            )
        )
        accessors = sorted(accessors_of.get(tag.name, ()))
        if not accessors:
            logger.warning("tag %s accessed by no block; attached to top group", tag.name)
        parent = lowest_common_ancestor(g, [group_of[a] for a in accessors]) or top_id
        g.add_edge(Edge(EdgeKind.CONTAINS, parent, tid))
        ch_id = node_id(NodeKind.CHANNEL, f"{tag.device_id}/{tag.channel_index}")
        g.add_edge(Edge(EdgeKind.WIRED_TO, tid, ch_id))
        for owner in accessors:
            modes = {a.mode for a in tree.accesses[owner] if a.tag == tag.name}
            for mode in sorted(modes, key=lambda m: m.value):
                ekind = EdgeKind.READS if mode.value == "Read" else EdgeKind.WRITES
                g.add_edge(Edge(ekind, sc_of[owner], tid))
    return g
