"""In-memory labeled property graph with a containment hierarchy.

This is the shared substrate every analysis stage writes into: a directed
multigraph whose nodes and edges carry typed key-value labels, plus a
``Contains`` relation that must always form a forest. Stages produce
fragments that use a stable identity scheme (``"<Kind>:<canonical-name>"``,
e.g. ``"Sensor:S_occ_1_1"``) so independently computed fragments can be
merged by plain union.

Reserved label keys (the fixed label vocabulary; a stand-in for a full
ontology TBox, which is deliberately minimal):

========================  =======  =====================================
key                       type     meaning
========================  =======  =====================================
``domain``                str      mechanic | electric | software
``position.x/.y/.z``      float    estimated position in meters, finite
``matchCount``            int      events matched for the position
``address``               str      IO address of a field device
``channelIndex``          int      channel index on an IO device
``dataType``              str      PLC data type of the backing tag
``templateId``            str      id of the mined template
``support``               int      pattern support of a template
``patternCode``           str      serialized structure of a template
``members``               str      member node ids of a template instance
========================  =======  =====================================

A reserved label of another type, a bool included, a position that is
NaN or infinite, and a damaged ``patternCode`` (``mining.stored_template``)
are data errors (exit 2).

Persistence is newline-delimited JSON records (``*.dtgraph``): one object
per line, node records before edge records, keys sorted, UTF-8. Record
order must not matter on load. Edge records store no id; one that does
(as older files do) must hold ``edge_id`` of the record's kind and endpoints.

Concurrency: single writer, any number of concurrent readers; instances
may be handed between threads but must not be mutated concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DataError

LabelValue = str | int | float | bool
Labels = dict[str, LabelValue]


class NodeKind(str, Enum):
    SYSTEM_ROOT = "SystemRoot"
    SENSOR = "Sensor"
    ACTUATOR = "Actuator"
    SOFTWARE_COMPONENT = "SoftwareComponent"
    FUNCTION_BLOCK_TYPE = "FunctionBlockType"
    DATA_BLOCK = "DataBlock"
    PLC = "Plc"
    IO_DEVICE = "IoDevice"
    CHANNEL = "Channel"
    FUNCTIONAL_GROUP = "FunctionalGroup"
    PHYSICAL_GROUP = "PhysicalGroup"
    TEMPLATE_PATTERN = "TemplatePattern"
    TEMPLATE_INSTANCE = "TemplateInstance"
    MATERIAL_TRACKER = "MaterialTracker"


# The node kinds the mining projection leaves out by default. Automation
# hardware: a single IO device fans out to all of its channels and field
# devices, and those stars crowd out the structurally interesting
# templates. Software-backing detail and the dynamics nodes multiply the
# pattern space without adding repeated units, and the marking's own
# TemplatePattern / TemplateInstance nodes must not be mined again when a
# marked graph is re-mined.
DEFAULT_EXCLUDED_KINDS = frozenset(
    {
        NodeKind.PLC,
        NodeKind.IO_DEVICE,
        NodeKind.CHANNEL,
        NodeKind.DATA_BLOCK,
        NodeKind.FUNCTION_BLOCK_TYPE,
        NodeKind.PHYSICAL_GROUP,
        NodeKind.MATERIAL_TRACKER,
        NodeKind.TEMPLATE_PATTERN,
        NodeKind.TEMPLATE_INSTANCE,
    }
)


class EdgeKind(str, Enum):
    CONTAINS = "Contains"
    READS = "Reads"
    WRITES = "Writes"
    CALLS = "Calls"
    TYPED_BY = "TypedBy"
    BACKED_BY = "BackedBy"
    WIRED_TO = "WiredTo"
    MEMBER_OF_PHYSICAL = "MemberOfPhysical"
    INSTANCE_OF = "InstanceOf"


class Provenance(str, Enum):
    PLC_ANALYSIS = "PlcAnalysis"
    DYNAMICS_ANALYSIS = "DynamicsAnalysis"
    MINING = "Mining"
    GENERATOR = "Generator"
    IMPORT = "Import"


class GraphError(DataError):
    """Base class for property-graph invariant violations."""


class DuplicateIdError(GraphError):
    pass


class MissingEndpointError(GraphError):
    pass


class KindViolationError(GraphError):
    pass


class HierarchyCycleError(GraphError):
    """A Contains edge would break the forest property (cycle or second parent)."""


class ConflictingKindError(GraphError):
    pass


class MalformedRecordError(GraphError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# Allowed (source kinds, target kinds) per edge kind; Contains is governed
# by the forest check instead.
_ENDPOINT_RULES: dict[EdgeKind, tuple[frozenset[NodeKind], frozenset[NodeKind]]] = {
    EdgeKind.READS: (
        frozenset({NodeKind.SOFTWARE_COMPONENT}),
        frozenset({NodeKind.SENSOR, NodeKind.ACTUATOR}),
    ),
    EdgeKind.WRITES: (
        frozenset({NodeKind.SOFTWARE_COMPONENT}),
        frozenset({NodeKind.SENSOR, NodeKind.ACTUATOR}),
    ),
    EdgeKind.CALLS: (
        frozenset({NodeKind.SOFTWARE_COMPONENT}),
        frozenset({NodeKind.SOFTWARE_COMPONENT}),
    ),
    EdgeKind.TYPED_BY: (
        frozenset({NodeKind.SOFTWARE_COMPONENT}),
        frozenset({NodeKind.FUNCTION_BLOCK_TYPE}),
    ),
    EdgeKind.BACKED_BY: (
        frozenset({NodeKind.SOFTWARE_COMPONENT}),
        frozenset({NodeKind.DATA_BLOCK}),
    ),
    EdgeKind.WIRED_TO: (
        frozenset({NodeKind.SENSOR, NodeKind.ACTUATOR}),
        frozenset({NodeKind.CHANNEL}),
    ),
    EdgeKind.MEMBER_OF_PHYSICAL: (
        frozenset({NodeKind.SENSOR, NodeKind.ACTUATOR}),
        frozenset({NodeKind.PHYSICAL_GROUP}),
    ),
    EdgeKind.INSTANCE_OF: (
        frozenset({NodeKind.TEMPLATE_INSTANCE}),
        frozenset({NodeKind.TEMPLATE_PATTERN}),
    ),
}

# Reserved label keys that must carry a specific value type when present.
_RESERVED_LABEL_TYPES: dict[str, type | tuple[type, ...]] = {
    "position.x": float,
    "position.y": float,
    "position.z": float,
    "templateId": str,
    "support": int,
    "channelIndex": int,
    "matchCount": int,
    "patternCode": str,
}


def _check_labels(labels: Mapping[str, LabelValue], owner: str) -> None:
    for key, value in labels.items():
        if not isinstance(key, str) or not key:
            raise KindViolationError(f"{owner}: label keys must be non-empty strings")
        if not isinstance(value, (str, int, float)):  # bool is an int subclass
            raise KindViolationError(
                f"{owner}: label {key!r} has non-scalar value {value!r}"
            )
        expected = _RESERVED_LABEL_TYPES.get(key)
        if expected is not None and (isinstance(value, bool) or not isinstance(value, expected)):
            raise KindViolationError(
                f"{owner}: reserved label {key!r} must be {expected}, got {type(value).__name__}"
            )
        if expected is float and not math.isfinite(value):
            raise KindViolationError(
                f"{owner}: reserved label {key!r} must be finite, got {value!r}"
            )


def node_id(kind: NodeKind, canonical_name: str) -> str:
    """Stable node identity: kind-qualified canonical name."""
    return f"{kind.value}:{canonical_name}"


def edge_id(kind: EdgeKind, source: str, target: str) -> str:
    return f"{kind.value}:{source}->{target}"


@dataclass
class Node:
    id: str
    kind: NodeKind
    name: str
    labels: Labels = field(default_factory=dict)
    provenance: Provenance = Provenance.GENERATOR

    def copy(self) -> "Node":
        return Node(self.id, self.kind, self.name, dict(self.labels), self.provenance)


@dataclass
class Edge:
    """A directed edge; its id is ``edge_id`` of its kind and endpoints."""

    kind: EdgeKind
    source: str
    target: str
    labels: Labels = field(default_factory=dict)
    id: str = field(init=False)

    def __post_init__(self) -> None:
        self.id = edge_id(self.kind, self.source, self.target)

    @property
    def triple(self) -> tuple[EdgeKind, str, str]:
        return (self.kind, self.source, self.target)

    def copy(self) -> "Edge":
        return Edge(self.kind, self.source, self.target, dict(self.labels))


class PropertyGraph:
    """Labeled directed multigraph with a Contains forest.

    Nodes are keyed by id; at most one edge exists per (kind, source,
    target) triple. All mutation goes through :meth:`add_node` and
    :meth:`add_edge`, which enforce the declared invariants eagerly.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, Node] = {}
        self._edges: dict[tuple[EdgeKind, str, str], Edge] = {}
        self._out: dict[str, list[Edge]] = {}
        self._in: dict[str, list[Edge]] = {}
        self._parent: dict[str, str] = {}  # Contains child -> parent

    # -- basic accessors ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def has_node(self, nid: str) -> bool:
        return nid in self._nodes

    def node(self, nid: str) -> Node:
        try:
            return self._nodes[nid]
        except KeyError:
            raise MissingEndpointError(f"no node with id {nid!r}") from None

    def nodes(self) -> list[Node]:
        """All nodes in deterministic id order."""
        return [self._nodes[k] for k in sorted(self._nodes)]

    def edges(self) -> list[Edge]:
        """All edges in deterministic id order."""
        return sorted(self._edges.values(), key=lambda e: e.id)

    def has_edge(self, kind: EdgeKind, source: str, target: str) -> bool:
        return (kind, source, target) in self._edges

    def out_edges(self, nid: str, kind: EdgeKind | None = None) -> list[Edge]:
        edges = self._out.get(nid, [])
        if kind is not None:
            edges = [e for e in edges if e.kind is kind]
        return sorted(edges, key=lambda e: e.id)

    def in_edges(self, nid: str, kind: EdgeKind | None = None) -> list[Edge]:
        edges = self._in.get(nid, [])
        if kind is not None:
            edges = [e for e in edges if e.kind is kind]
        return sorted(edges, key=lambda e: e.id)

    def contains_parent(self, nid: str) -> str | None:
        return self._parent.get(nid)

    def contains_children(self, nid: str) -> list[str]:
        return sorted(e.target for e in self._out.get(nid, []) if e.kind is EdgeKind.CONTAINS)

    def ancestors(self, nid: str) -> list[str]:
        """Containment ancestor chain, nearest first."""
        chain = []
        cur = self._parent.get(nid)
        while cur is not None:
            chain.append(cur)
            cur = self._parent.get(cur)
        return chain

    # -- mutation ----------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node.id in self._nodes:
            raise DuplicateIdError(f"node id {node.id!r} already present")
        if not node.id:
            raise KindViolationError("node id must be non-empty")
        if not node.name:
            raise KindViolationError(f"node {node.id!r}: name must be non-empty")
        if not isinstance(node.kind, NodeKind):
            raise KindViolationError(f"node {node.id!r}: kind must be a NodeKind")
        _check_labels(node.labels, f"node {node.id!r}")
        self._nodes[node.id] = node

    def add_edge(self, edge: Edge) -> None:
        if edge.source not in self._nodes:
            raise MissingEndpointError(f"edge {edge.id!r}: unknown source {edge.source!r}")
        if edge.target not in self._nodes:
            raise MissingEndpointError(f"edge {edge.id!r}: unknown target {edge.target!r}")
        if edge.triple in self._edges:
            raise DuplicateIdError(
                f"duplicate edge ({edge.kind.value}, {edge.source!r}, {edge.target!r})"
            )
        _check_labels(edge.labels, f"edge {edge.id!r}")
        rule = _ENDPOINT_RULES.get(edge.kind)
        if rule is not None:
            src_kinds, tgt_kinds = rule
            if self._nodes[edge.source].kind not in src_kinds:
                raise KindViolationError(
                    f"{edge.kind.value} edge source must be one of "
                    f"{sorted(k.value for k in src_kinds)}, got {self._nodes[edge.source].kind.value}"
                )
            if self._nodes[edge.target].kind not in tgt_kinds:
                raise KindViolationError(
                    f"{edge.kind.value} edge target must be one of "
                    f"{sorted(k.value for k in tgt_kinds)}, got {self._nodes[edge.target].kind.value}"
                )
        if edge.kind is EdgeKind.CONTAINS:
            self._check_contains(edge.source, edge.target)
            self._parent[edge.target] = edge.source
        self._edges[edge.triple] = edge
        self._out.setdefault(edge.source, []).append(edge)
        self._in.setdefault(edge.target, []).append(edge)

    def _check_contains(self, parent: str, child: str) -> None:
        if parent == child:
            raise HierarchyCycleError(f"Contains self-loop on {child!r}")
        if child in self._parent:
            raise HierarchyCycleError(
                f"{child!r} already has Contains parent {self._parent[child]!r}"
            )
        # A cycle arises iff the new child is an ancestor of the new parent.
        if child in self.ancestors(parent):
            raise HierarchyCycleError(f"Contains edge {parent!r}->{child!r} would close a cycle")

    # -- queries -----------------------------------------------------------

    def query(self, kinds: Iterable[NodeKind] | None = None) -> list[Node]:
        """Nodes of the given kinds, or all nodes, in deterministic id order."""
        if kinds is None:
            return self.nodes()
        kind_set = frozenset(kinds)
        return [node for node in self.nodes() if node.kind in kind_set]

    # -- whole-graph checks --------------------------------------------------

    def system_roots(self) -> list[Node]:
        return [n for n in self.nodes() if n.kind is NodeKind.SYSTEM_ROOT]

    def validate(self) -> list[str]:
        """Check the assembled-graph rules; returns human-readable findings.

        Exactly one SystemRoot must exist and every other node must be
        reachable from it via Contains edges. The Contains forest itself is
        enforced on mutation.
        """
        roots = self.system_roots()
        if len(roots) != 1:
            return [f"expected exactly one SystemRoot, found {len(roots)}"]
        reachable = set(iter_contains_subtree(self, roots[0].id))
        return [
            f"node {nid!r} not reachable from SystemRoot via Contains"
            for nid in sorted(set(self._nodes) - reachable)
        ]

    # -- equality and copying -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PropertyGraph):
            return NotImplemented
        if set(self._nodes) != set(other._nodes):
            return False
        for nid, node in self._nodes.items():
            o = other._nodes[nid]
            if (node.kind, node.name, node.labels, node.provenance) != (
                o.kind,
                o.name,
                o.labels,
                o.provenance,
            ):
                return False
        if set(self._edges) != set(other._edges):
            return False
        return all(e.labels == other._edges[t].labels for t, e in self._edges.items())

    def copy(self) -> "PropertyGraph":
        g = PropertyGraph()
        for n in self.nodes():
            g.add_node(n.copy())
        for e in self.edges():
            g.add_edge(e.copy())
        return g

    # -- persistence ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        save_graph(self, path)

    def __repr__(self) -> str:
        return f"PropertyGraph(nodes={self.node_count}, edges={self.edge_count})"


def merge(base: PropertyGraph, overlay: PropertyGraph) -> PropertyGraph:
    """Union of two graph fragments with overlay precedence on labels.

    Both fragments must use the stable identity scheme so that nodes
    describing the same thing collide on id. Kind conflicts are errors;
    names, provenance and label values take the overlay's value where both
    sides define one.
    """
    result = base.copy()
    for node in overlay.nodes():
        if result.has_node(node.id):
            existing = result.node(node.id)
            if existing.kind is not node.kind:
                raise ConflictingKindError(
                    f"node {node.id!r} is {existing.kind.value} in base "
                    f"but {node.kind.value} in overlay"
                )
            existing.name = node.name
            existing.provenance = node.provenance
            existing.labels.update(node.labels)
        else:
            result.add_node(node.copy())
    for edge in overlay.edges():
        existing = result._edges.get(edge.triple)
        if existing is not None:
            existing.labels.update(edge.labels)
        else:
            result.add_edge(edge.copy())
    return result


def _node_record(node: Node) -> dict:
    return {
        "recordType": "node",
        "id": node.id,
        "kind": node.kind.value,
        "name": node.name,
        "labels": node.labels,
        "provenance": node.provenance.value,
    }


def _edge_record(edge: Edge) -> dict:
    return {
        "recordType": "edge",
        "kind": edge.kind.value,
        "source": edge.source,
        "target": edge.target,
        "labels": edge.labels,
    }


def save_graph(graph: PropertyGraph, path: str | Path) -> None:
    """Write newline-delimited records: nodes sorted by id, then edges."""
    lines = [json.dumps(_node_record(n), sort_keys=True, ensure_ascii=False) for n in graph.nodes()]
    lines += [json.dumps(_edge_record(e), sort_keys=True, ensure_ascii=False) for e in graph.edges()]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _parse_record(raw: str, lineno: int) -> dict:
    try:
        record = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(f"invalid JSON ({exc.msg})", lineno) from None
    if not isinstance(record, dict) or "recordType" not in record:
        raise MalformedRecordError("record must be an object with a recordType", lineno)
    return record


_NODE_FIELDS = {"id": str, "kind": str, "name": str, "labels": dict, "provenance": str}
_EDGE_FIELDS = {"kind": str, "source": str, "target": str, "labels": dict}


def _require(record: dict, fields: Mapping[str, type], lineno: int) -> None:
    missing = [k for k in fields if k not in record]
    if missing:
        raise MalformedRecordError(f"missing fields {missing}", lineno)
    for key, expected in fields.items():
        if not isinstance(record[key], expected):
            wanted = "a string" if expected is str else "an object"
            raise MalformedRecordError(
                f"field {key!r} must be {wanted}, got {type(record[key]).__name__}", lineno
            )


def load_graph(path: str | Path) -> PropertyGraph:
    """Load a ``*.dtgraph`` file; record order does not matter."""
    graph = PropertyGraph()
    nodes: list[tuple[int, dict]] = []
    edges: list[tuple[int, dict]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            record = _parse_record(raw, lineno)
            if record["recordType"] == "node":
                _require(record, _NODE_FIELDS, lineno)
                nodes.append((lineno, record))
            elif record["recordType"] == "edge":
                _require(record, _EDGE_FIELDS, lineno)
                edges.append((lineno, record))
            else:
                raise MalformedRecordError(
                    f"unknown recordType {record['recordType']!r}", lineno
                )
    for lineno, rec in nodes:
        try:
            graph.add_node(
                Node(
                    id=rec["id"],
                    kind=NodeKind(rec["kind"]),
                    name=rec["name"],
                    labels=dict(rec["labels"]),
                    provenance=Provenance(rec["provenance"]),
                )
            )
        except (ValueError, GraphError) as exc:
            raise MalformedRecordError(str(exc), lineno) from None
    for lineno, rec in edges:
        try:
            edge = Edge(EdgeKind(rec["kind"]), rec["source"], rec["target"], dict(rec["labels"]))
            if rec.get("id", edge.id) != edge.id:
                raise GraphError(f"edge id {rec['id']!r} must be {edge.id!r}")
            graph.add_edge(edge)
        except (ValueError, GraphError) as exc:
            raise MalformedRecordError(str(exc), lineno) from None
    return graph


def lowest_common_ancestor(graph: PropertyGraph, node_ids: Sequence[str]) -> str | None:
    """Lowest common ancestor-or-self in the Contains forest, or None."""
    if not node_ids:
        return None
    chains: list[list[str]] = []
    for nid in node_ids:
        chains.append([nid] + graph.ancestors(nid))
    common = set(chains[0])
    for chain in chains[1:]:
        common &= set(chain)
    if not common:
        return None
    # The first element of any chain that is common is the lowest one.
    for candidate in chains[0]:
        if candidate in common:
            return candidate
    return None


def iter_contains_subtree(graph: PropertyGraph, root_id: str) -> Iterator[str]:
    """Yield the node and every Contains descendant, depth-first, sorted."""
    stack = [root_id]
    while stack:
        nid = stack.pop()
        yield nid
        stack.extend(reversed(graph.contains_children(nid)))
