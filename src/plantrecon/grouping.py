"""Rule-based functional grouping of PLC code elements into a graph fragment.

The rule set is deliberately small and isolated here so it can be swapped:

* R1 — every organization block and FB instance becomes a SoftwareComponent.
* R2 — a Read tag access becomes a Reads edge, a Write access a Writes edge.
* R3 — ``%I`` tags become Sensor nodes, ``%Q`` tags Actuator nodes.
* R4 — a field device is contained in the group of its sole accessing
  component, or in the lowest common ancestor group of all accessors.
  Tags accessed by no block land in the top group, with a warning.
* R5 — the call graph induces the FunctionalGroup containment: one group
  per call node; an instance called from several places is placed under
  the lowest common ancestor of its callers' groups. Groups are built in
  ``CallTree.order``, the call tree's topological order, so every
  caller's group exists before its callees' groups.

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


def effective_group_parents(tree: CallTree) -> dict[str, str | None]:
    """Single group parent per call node, applying the R5 rules.

    Roots and uncalled instances get ``None`` (placed under the top
    group); shared instances get the lowest common ancestor of their
    callers in the effective-parent tree.
    """
    eff: dict[str, str | None] = {}

    def chain(node: str) -> list[str]:
        out = [node]
        cur = eff[node]
        while cur is not None:
            out.append(cur)
            cur = eff[cur]
        return out

    for name in tree.order:
        callers = tree.parents[name]
        if not callers:
            eff[name] = None
        elif len(callers) == 1:
            eff[name] = callers[0]
        else:
            chains = [chain(c) for c in callers]
            common = set(chains[0]).intersection(*map(set, chains[1:]))
            eff[name] = next((n for n in chains[0] if n in common), None)
    return eff


def functional_grouping(project: PlcProject, tree: CallTree) -> PropertyGraph:
    """Emit the software / field-device / hardware fragment for a project."""
    if not project.prepared:
        raise ValueError("project must be prepared before grouping")
    g = PropertyGraph()

    root_id = node_id(NodeKind.SYSTEM_ROOT, project.name)
    g.add_node(_node(NodeKind.SYSTEM_ROOT, project.name, root_id))
    top_id = node_id(NodeKind.FUNCTIONAL_GROUP, project.name)
    g.add_node(_node(NodeKind.FUNCTIONAL_GROUP, project.name, top_id))
    g.add_edge(Edge(EdgeKind.CONTAINS, root_id, top_id))

    uncalled = [n for n in tree.nodes if not tree.parents[n] and n not in tree.roots]
    if uncalled:
        logger.warning("instances never called, attached to top group: %s", uncalled)

    # R5: one FunctionalGroup per call node.
    eff = effective_group_parents(tree)
    group_of: dict[str, str] = {}
    path_of: dict[str, str] = {}
    for name in tree.order:
        parent = eff[name]
        if parent is None:
            parent_group, parent_path = top_id, ""
        else:
            parent_group, parent_path = group_of[parent], path_of[parent]
        path = f"{parent_path}/{name}" if parent_path else name
        gid = node_id(NodeKind.FUNCTIONAL_GROUP, path)
        g.add_node(_node(NodeKind.FUNCTIONAL_GROUP, name, gid))
        g.add_edge(Edge(EdgeKind.CONTAINS, parent_group, gid))
        group_of[name] = gid
        path_of[name] = path

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
    for caller, callee in project.call_edges:
        if not g.has_edge(EdgeKind.CALLS, sc_of[caller], sc_of[callee]):
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
    for owner, accesses in project.accesses.items():
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
            parent = top_id
        elif len(accessors) == 1:
            parent = group_of[accessors[0]]
        else:
            lca = lowest_common_ancestor(g, [group_of[a] for a in accessors])
            parent = lca if lca is not None else top_id
        g.add_edge(Edge(EdgeKind.CONTAINS, parent, tid))
        ch_id = node_id(NodeKind.CHANNEL, f"{tag.device_id}/{tag.channel_index}")
        if g.has_node(ch_id):
            g.add_edge(Edge(EdgeKind.WIRED_TO, tid, ch_id))
        for owner in accessors:
            modes = {a.mode for a in project.accesses[owner] if a.tag == tag.name}
            for mode in sorted(modes, key=lambda m: m.value):
                ekind = EdgeKind.READS if mode.value == "Read" else EdgeKind.WRITES
                g.add_edge(Edge(ekind, sc_of[owner], tid))
    return g


def group_tree_shape(graph: PropertyGraph, group_id: str) -> tuple:
    """Canonical shape of a FunctionalGroup subtree (names ignored).

    Two group trees are isomorphic iff their shapes compare equal. Only
    FunctionalGroup children contribute to the shape.
    """
    children = [
        group_tree_shape(graph, c)
        for c in graph.contains_children(group_id)
        if graph.node(c).kind is NodeKind.FUNCTIONAL_GROUP
    ]
    return tuple(sorted(children))


def call_tree_shape(tree: CallTree) -> tuple:
    """Test reference: the canonical shape of the call tree, comparable with
    group_tree_shape of the top group (shared instances placed at their
    LCA, as in R5)."""
    eff = effective_group_parents(tree)
    children: dict[str | None, list[str]] = {}
    for name, parent in eff.items():
        children.setdefault(parent, []).append(name)

    def shape(node: str | None) -> tuple:
        return tuple(sorted(shape(c) for c in children.get(node, [])))

    return shape(None)
