"""Frequent subgraph mining over the assembled graph.

Patterns are connected, directed, labeled subgraphs. The pipeline's
search grows only root-anchored patterns, those one vertex spans along
Contains arcs (the plant's repeated containment units): add a Contains
child to a pattern vertex, or close an unused arc between two pattern
vertices, and expand each canonical DFS code once. The general search,
the reference the rooted one is checked against, is gSpan: grow
canonical DFS codes along the rightmost path, prune non-minimal codes,
and prune by support. Because everything lives in one
large graph rather than a transaction database, support is
minimum-image-based (MNI): the number of distinct graph vertices seen at
the pattern position with the fewest distinct images. MNI is
anti-monotone, which keeps the support pruning sound; this deliberately
diverges from the transaction-based support of textbook gSpan.

Edge direction is part of the edge label, so ``A -Contains-> B`` and
``B -Contains-> A`` are different patterns. The mining projection leaves
out, by default, every node kind that is not part of the plant's own
functional structure (see ``DEFAULT_EXCLUDED_KINDS``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DataError
from .graph import (
    Edge,
    EdgeKind,
    Node,
    NodeKind,
    PropertyGraph,
    Provenance,
    iter_contains_subtree,
    lowest_common_ancestor,
    node_id,
)

# A DFS-code edge: (i, j, label_i, (direction, edge_label), label_j) with
# direction 1 when the underlying arc points from code vertex i to j.
CodeEdge = tuple[int, int, str, tuple[int, str], str]
DfsCode = tuple[CodeEdge, ...]

# Automation hardware: a single IO device fans out to all of its channels
# and field devices, and those stars crowd out the structurally interesting
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


class MiningError(DataError):
    pass


class StaleEmbeddingError(MiningError):
    pass


@dataclass
class MiningGraph:
    """Label-projected labeled graph, ready for pattern search.

    It serves both as the host graph and as the pattern graph of the
    canonical-code check. Edges are unique per (src, dst, label), so an
    embedding's vertex map fixes which edges it uses.
    """

    vertex_ids: list
    vertex_labels: dict
    edges: list[tuple]  # (src, dst, label)

    def __post_init__(self) -> None:
        if len(set(self.edges)) != len(self.edges):
            duplicates = sorted({e for e in self.edges if self.edges.count(e) > 1})
            raise MiningError(f"duplicate (src, dst, label) edges {duplicates}")
        self._adj: dict = {v: [] for v in self.vertex_ids}
        for (src, dst, label) in self.edges:
            self._adj[src].append((dst, 1, label))
            self._adj[dst].append((src, 0, label))

    def adjacency(self, vid) -> list[tuple]:
        """(neighbor, direction flag, edge label) entries."""
        return self._adj[vid]


def project_for_mining(
    graph: PropertyGraph,
    excluded_kinds: frozenset[NodeKind] | set[NodeKind] = DEFAULT_EXCLUDED_KINDS,
) -> MiningGraph:
    """Project the property graph onto a plain labeled graph.

    Vertices are the nodes reachable from the SystemRoot via Contains
    edges (the whole assembled system), minus the excluded kinds. The
    vertex label is the node kind; the edge label is the edge kind.
    Self-loops are dropped.
    """
    roots = graph.system_roots()
    if roots:
        scope = set(iter_contains_subtree(graph, roots[0].id))
    else:
        scope = {n.id for n in graph.nodes()}
    vertex_ids = []
    vertex_labels = {}
    for nid in sorted(scope):
        node = graph.node(nid)
        if node.kind in excluded_kinds:
            continue
        vertex_ids.append(nid)
        vertex_labels[nid] = node.kind.value
    keep = set(vertex_ids)
    edges = [
        (e.source, e.target, e.kind.value)
        for e in graph.edges()
        if e.source in keep and e.target in keep and e.source != e.target
    ]
    return MiningGraph(vertex_ids, vertex_labels, edges)


@dataclass
class Pattern:
    """A frequent pattern: canonical DFS code plus all of its embeddings."""

    code: DfsCode
    support: int
    embeddings: list[tuple[str, ...]]  # position -> graph vertex id
    vertex_labels: tuple[str, ...]
    arcs: tuple[tuple[int, int, str], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_labels)

    @property
    def edge_count(self) -> int:
        return len(self.arcs)

    def sort_key(self):
        return (-self.support, -self.vertex_count, -self.edge_count, self.code)

    def structure_json(self) -> str:
        return json.dumps(
            {"vertices": list(self.vertex_labels), "edges": [list(a) for a in self.arcs]},
            sort_keys=True,
        )

    @classmethod
    def from_structure(cls, structure: dict, support: int) -> Pattern:
        """Inverse of ``structure_json``: a pattern with no code and no
        embeddings, for comparing stored or expected structures."""
        return cls(
            code=(),
            support=support,
            embeddings=[],
            vertex_labels=tuple(structure["vertices"]),
            arcs=tuple((int(u), int(v), str(k)) for (u, v, k) in structure["edges"]),
        )


def is_structure(value) -> bool:
    """String vertices, [source, target, label] edges between them and an
    optional int support: what ``Pattern.structure_json`` writes, and a
    ground-truth template."""
    vertices = value.get("vertices") if isinstance(value, dict) else None
    if not isinstance(vertices, list) or not all(type(v) is str for v in vertices):
        return False
    ends = range(len(vertices))
    return type(value.get("support", 0)) is int and isinstance(value.get("edges"), list) and all(
        isinstance(e, list) and len(e) == 3 and e[0] in ends and e[1] in ends and type(e[2]) is str
        for e in value["edges"]
    )


def stored_template(node: Node) -> Pattern:
    """The template a TemplatePattern node stores: the structure in its
    ``patternCode`` label and its ``support``, as a pattern with no code
    and no embeddings. A missing or damaged ``patternCode`` raises
    ``MiningError``."""
    try:
        structure = json.loads(node.labels["patternCode"])
    except (KeyError, json.JSONDecodeError) as exc:
        raise MiningError(f"{node.id}: patternCode missing or not JSON ({exc})") from None
    if not is_structure(structure):
        raise MiningError(f"{node.id}: patternCode is not a template structure")
    return Pattern.from_structure(structure, node.labels.get("support", 0))


def code_to_structure(code: DfsCode) -> tuple[tuple[str, ...], tuple[tuple[int, int, str], ...]]:
    """Vertex labels and directed arcs of the pattern a DFS code describes."""
    labels: dict[int, str] = {}
    arcs = []
    for (i, j, li, (direction, elabel), lj) in code:
        labels.setdefault(i, li)
        labels.setdefault(j, lj)
        if direction == 1:
            arcs.append((i, j, elabel))
        else:
            arcs.append((j, i, elabel))
    n = max(labels) + 1
    return tuple(labels[p] for p in range(n)), tuple(arcs)


def _pattern_graph(vertex_labels: tuple[str, ...], arcs) -> MiningGraph:
    return MiningGraph(list(range(len(vertex_labels))), dict(enumerate(vertex_labels)), list(arcs))


# An embedding is the tuple of graph vertices per code position. Edges are
# unique per (src, dst, label), so the vertex map fixes the edges it uses.
# Plain tuples: these are created millions of times during a mining run.
_Embedding = tuple


def _rightmost_path(code: DfsCode) -> list[int]:
    """Positions on the rightmost path, rightmost vertex first, root last."""
    path_edges = []
    last_from = None
    for k in range(len(code) - 1, -1, -1):
        i, j = code[k][0], code[k][1]
        if i < j and (last_from is None or j == last_from):
            path_edges.append(k)
            last_from = i
    maxtoc = code[path_edges[0]][1] if path_edges else 1
    vertices = [maxtoc] + [code[k][0] for k in path_edges]
    return vertices


def _initial_codes(view: MiningGraph) -> dict[CodeEdge, list[_Embedding]]:
    """One-edge codes and their embeddings. A one-edge code compares as
    its (label_i, (direction, edge_label), label_j) part, the gSpan order
    of first edges."""
    seeds: dict[CodeEdge, list[_Embedding]] = {}
    labels = view.vertex_labels
    for (src, dst, elabel) in view.edges:
        # Each underlying edge yields two oriented starts.
        for a, b, d in ((src, dst, 1), (dst, src, 0)):
            ce: CodeEdge = (0, 1, labels[a], (d, elabel), labels[b])
            seeds.setdefault(ce, []).append((a, b))
    return seeds


# Candidate extensions are enumerated as light (embedding index, new vertex
# | None) entries; full embeddings are materialized only for candidates
# that survive the support and canonicality pruning.
_Entry = tuple[int, object]


def _extension_entries(
    code: DfsCode,
    embeddings: list[_Embedding],
    view: MiningGraph,
    max_nodes: int | None,
) -> dict[CodeEdge, list[_Entry]]:
    rmpath = _rightmost_path(code)
    maxtoc = rmpath[0]
    labels_by_pos, arcs = code_to_structure(code)
    nverts = len(labels_by_pos)
    used_arcs = set(arcs)
    exts: dict[CodeEdge, list[_Entry]] = {}
    allow_forward = max_nodes is None or nverts < max_nodes
    vlabels = view.vertex_labels
    adjacency = view.adjacency
    for emb_idx, vmap in enumerate(embeddings):
        # Backward: from the rightmost vertex to a rightmost-path vertex,
        # along an arc the code does not use yet.
        rm_image = vmap[maxtoc]
        for j in rmpath[1:]:
            target_image = vmap[j]
            for (nb, direction, elabel) in adjacency(rm_image):
                if nb != target_image:
                    continue
                arc = (maxtoc, j, elabel) if direction == 1 else (j, maxtoc, elabel)
                if arc in used_arcs:
                    continue
                ce: CodeEdge = (maxtoc, j, labels_by_pos[maxtoc], (direction, elabel), labels_by_pos[j])
                exts.setdefault(ce, []).append((emb_idx, None))
        # Forward: from any rightmost-path vertex to a fresh vertex.
        if allow_forward:
            vset = set(vmap)
            for i in rmpath:
                src_label = labels_by_pos[i]
                for (nb, direction, elabel) in adjacency(vmap[i]):
                    if nb in vset:
                        continue
                    ce = (i, nverts, src_label, (direction, elabel), vlabels[nb])
                    exts.setdefault(ce, []).append((emb_idx, nb))
    return exts


def _entries_mni(entries: list[_Entry], embeddings: list[_Embedding], nverts: int) -> int:
    best = None
    for p in range(nverts):
        images = {embeddings[idx][p] for (idx, _) in entries}
        if best is None or len(images) < best:
            best = len(images)
            if best == 0:
                return 0
    if entries and entries[0][1] is not None:  # forward: the new position
        images = {nb for (_, nb) in entries}
        if best is None or len(images) < best:
            best = len(images)
    return best or 0


def _materialize(entries: list[_Entry], embeddings: list[_Embedding]) -> list[_Embedding]:
    return [embeddings[idx] if nb is None else embeddings[idx] + (nb,) for (idx, nb) in entries]


def _extension_rank(ce: CodeEdge):
    """gSpan order of candidate extensions of one code: backward edges
    first (nearer targets first), then forward edges (deeper sources
    first), labels breaking ties. Injective per code."""
    i, j, _, el, lj = ce
    if j < i:  # backward
        return (0, j, el, lj)
    return (1, -i, el, lj)


def _mni(embeddings: list[_Embedding]) -> int:
    if not embeddings:
        return 0
    return min(len({vmap[p] for vmap in embeddings}) for p in range(len(embeddings[0])))


def _min_code_walk(view: MiningGraph):
    """Yield the minimal DFS code of a connected pattern graph, edge by
    edge. Each code edge comes with one map from the code positions so far
    to the pattern graph's vertices that realises the code."""
    seeds = _initial_codes(view)
    code = (min(seeds),)
    embeddings = seeds[code[0]]
    yield code[0], embeddings[0]
    while len(code) < len(view.edges):
        exts = _extension_entries(code, embeddings, view, None)
        best = min(exts, key=_extension_rank)
        embeddings = _materialize(exts[best], embeddings)
        code += (best,)
        yield best, embeddings[0]


def min_dfs_code(vertex_labels: tuple[str, ...], arcs: tuple[tuple[int, int, str], ...]) -> DfsCode:
    """Canonical (minimal) DFS code of a connected pattern graph."""
    return tuple(ce for ce, _ in _min_code_walk(_pattern_graph(vertex_labels, arcs)))


def _is_canonical(code: DfsCode) -> bool:
    """Stepwise minimality check with early exit at the first divergence."""
    walk = _min_code_walk(_pattern_graph(*code_to_structure(code)))
    return all(best == ce for (best, _), ce in zip(walk, code))


_CONTAINS = EdgeKind.CONTAINS.value

# A rooted-search extension: (i, j, edge label, new vertex label) for the
# arc i -> j, where j is a fresh vertex exactly when it equals the
# pattern's vertex count (the label is "" for a closing arc).
_RootedMove = tuple[int, int, str, str]


def _rooted_entries(
    arcs: set[tuple[int, int, str]],
    nverts: int,
    embeddings: list[_Embedding],
    out_arcs: dict,
    vlabels: dict,
    allow_forward: bool,
) -> dict[_RootedMove, list[_Entry]]:
    """Extensions of a root-anchored pattern: a fresh Contains child of any
    vertex, or an unused arc of any label between two pattern vertices.
    Both are enumerated from the arc's source, so every embedding meets
    each extension once."""
    exts: dict[_RootedMove, list[_Entry]] = {}
    for emb_idx, vmap in enumerate(embeddings):
        position = {v: p for p, v in enumerate(vmap)}
        for i, image in enumerate(vmap):
            for (nb, elabel) in out_arcs[image]:
                j = position.get(nb)
                if j is None:
                    if allow_forward and elabel == _CONTAINS:
                        exts.setdefault((i, nverts, elabel, vlabels[nb]), []).append((emb_idx, nb))
                elif (i, j, elabel) not in arcs:
                    exts.setdefault((i, j, elabel, ""), []).append((emb_idx, None))
    return exts


def _mine_rooted(g: MiningGraph, min_support: int, min_nodes: int, max_nodes: int) -> list[Pattern]:
    """Patterns that one vertex spans along Contains arcs, grown only as such.

    Every such pattern is reached through root-anchored sub-patterns: take
    away the arcs outside one Contains spanning tree, then the tree's
    leaves one at a time. MNI is
    anti-monotone, so pruning by support loses none of them; each
    canonical code is expanded once. Embeddings are found in growth order
    and re-indexed to the canonical code's positions, so a result is the
    pattern the general search reports for the same code.
    """
    results: list[Pattern] = []
    seen: set[DfsCode] = set()
    out_arcs = {
        v: [(nb, elabel) for (nb, direction, elabel) in g.adjacency(v) if direction == 1]
        for v in g.vertex_ids
    }

    def visit(labels, arcs, embeddings, support) -> None:
        code: DfsCode = ()
        for ce, positions in _min_code_walk(_pattern_graph(labels, arcs)):
            code += (ce,)
        if code in seen:
            return
        seen.add(code)
        nverts = len(labels)
        if nverts >= min_nodes:
            code_labels, code_arcs = code_to_structure(code)
            results.append(
                Pattern(
                    code=code,
                    support=support,
                    embeddings=sorted(tuple(vmap[v] for v in positions) for vmap in embeddings),
                    vertex_labels=code_labels,
                    arcs=code_arcs,
                )
            )
        exts = _rooted_entries(
            set(arcs), nverts, embeddings, out_arcs, g.vertex_labels, nverts < max_nodes
        )
        for move in sorted(exts):
            entries = exts[move]
            child_support = _entries_mni(entries, embeddings, nverts)
            if child_support < min_support:
                continue
            i, j, elabel, new_label = move
            child_labels = labels + (new_label,) if j == nverts else labels
            child_arcs = arcs + ((i, j, elabel),)
            visit(child_labels, child_arcs, _materialize(entries, embeddings), child_support)

    seeds: dict[tuple[str, str], list[_Embedding]] = {}
    for (src, dst, elabel) in g.edges:
        if elabel == _CONTAINS:
            seeds.setdefault((g.vertex_labels[src], g.vertex_labels[dst]), []).append((src, dst))
    for labels in sorted(seeds):
        support = _mni(seeds[labels])
        if support >= min_support:
            visit(labels, ((0, 1, _CONTAINS),), seeds[labels], support)
    return results


def mine(
    g: MiningGraph,
    min_support: int = 2,
    min_nodes: int = 3,
    max_nodes: int = 12,
    root_anchored_only: bool = False,
) -> list[Pattern]:
    """All patterns with MNI support >= min_support and a vertex count in
    [min_nodes, max_nodes], sorted by (-support, -size, code).

    With ``root_anchored_only`` only the patterns that one vertex spans
    along Contains arcs, found by the rooted search instead of the
    general one; each is the same ``Pattern`` the general search reports
    for its code. The pipeline always runs the rooted search; the
    general search is the reference the tests check it against."""
    if min_support < 2:
        raise MiningError("min_support must be >= 2")
    if not (2 <= min_nodes <= max_nodes):
        raise MiningError("need 2 <= min_nodes <= max_nodes")
    if root_anchored_only:
        return sorted(_mine_rooted(g, min_support, min_nodes, max_nodes), key=Pattern.sort_key)
    results: list[Pattern] = []
    seeds = _initial_codes(g)

    def recurse(code: DfsCode, embeddings: list[_Embedding], support: int) -> None:
        labels, arcs = code_to_structure(code)
        nverts = len(labels)
        if min_nodes <= nverts <= max_nodes:
            results.append(
                Pattern(
                    code=code,
                    support=support,
                    embeddings=sorted(embeddings),
                    vertex_labels=labels,
                    arcs=arcs,
                )
            )
        exts = _extension_entries(code, embeddings, g, max_nodes)
        for ce in sorted(exts, key=_extension_rank):
            entries = exts[ce]
            child_support = _entries_mni(entries, embeddings, nverts)
            if child_support < min_support:
                continue
            child_code = code + (ce,)
            if not _is_canonical(child_code):
                continue
            recurse(child_code, _materialize(entries, embeddings), child_support)

    for ce in sorted(seeds):
        embeddings = seeds[ce]
        support = _mni(embeddings)
        if support < min_support:
            continue
        if not _is_canonical((ce,)):
            continue
        recurse((ce,), embeddings, support)

    return sorted(results, key=Pattern.sort_key)


def find_monomorphism(small: Pattern, big: Pattern) -> bool:
    """Is `small` isomorphic to a subgraph of `big` (labels respected)?"""
    if small.vertex_count > big.vertex_count or small.edge_count > big.edge_count:
        return False
    big_arcs = set(big.arcs)
    # Arcs of `small` whose later endpoint is k, for incremental checking.
    pending: dict[int, list[tuple[int, int, str]]] = {}
    for (u, v, label) in small.arcs:
        pending.setdefault(max(u, v), []).append((u, v, label))

    n = small.vertex_count
    mapping: list[int] = []
    used: set[int] = set()

    def extend(k: int) -> bool:
        if k == n:
            return True
        for cand in range(big.vertex_count):
            if cand in used or big.vertex_labels[cand] != small.vertex_labels[k]:
                continue
            ok = True
            for (u, v, label) in pending.get(k, ()):  # other endpoint is mapped
                uu = cand if u == k else mapping[u]
                vv = cand if v == k else mapping[v]
                if (uu, vv, label) not in big_arcs:
                    ok = False
                    break
            if not ok:
                continue
            mapping.append(cand)
            used.add(cand)
            if extend(k + 1):
                return True
            mapping.pop()
            used.remove(cand)
        return False

    return extend(0)


def patterns_isomorphic(a: Pattern, b: Pattern) -> bool:
    return (
        a.vertex_count == b.vertex_count
        and a.edge_count == b.edge_count
        and sorted(a.vertex_labels) == sorted(b.vertex_labels)
        and find_monomorphism(a, b)
    )


def select_templates(patterns: list[Pattern]) -> list[Pattern]:
    """Keep the maximal patterns: drop anything sub-isomorphic to a kept
    pattern of equal or greater support."""
    candidates = sorted(
        patterns, key=lambda p: (-p.edge_count, -p.vertex_count, p.code)
    )
    kept: list[Pattern] = []
    for pattern in candidates:
        dominated = any(
            other.support >= pattern.support and find_monomorphism(pattern, other)
            for other in kept
        )
        if not dominated:
            kept.append(pattern)
    return sorted(kept, key=Pattern.sort_key)


@dataclass
class TemplateAnnotation:
    template_id: str
    pattern: Pattern
    pattern_node_id: str
    instance_node_ids: list[str]


def mark_templates(graph: PropertyGraph, templates: list[Pattern]) -> list[TemplateAnnotation]:
    """Create TemplatePattern / TemplateInstance nodes for each template.

    Template ids are assigned in input order (T1, T2, ...). There is one
    instance per occurrence counted by the MNI support: per distinct graph
    image of the pattern position with the fewest distinct images (the
    lowest such position on ties). An instance's members are the union of
    the graph nodes of every embedding through its image, so a mined
    template gets exactly ``support`` instances and together they cover
    every embedded node. A second run with the same templates is a no-op.
    Member nodes are left untouched.
    """
    roots = graph.system_roots()
    if len(roots) != 1:
        raise MiningError(f"expected exactly one SystemRoot, found {len(roots)}")
    root_id = roots[0].id
    annotations = []
    for idx, pattern in enumerate(templates, start=1):
        tid = f"T{idx}"
        pattern_nid = node_id(NodeKind.TEMPLATE_PATTERN, tid)
        if not graph.has_node(pattern_nid):
            graph.add_node(
                Node(
                    pattern_nid,
                    NodeKind.TEMPLATE_PATTERN,
                    tid,
                    {
                        "templateId": tid,
                        "support": pattern.support,
                        "patternCode": pattern.structure_json(),
                    },
                    Provenance.MINING,
                )
            )
            graph.add_edge(Edge(EdgeKind.CONTAINS, root_id, pattern_nid))
        position = min(
            range(pattern.vertex_count),
            key=lambda p: len({vmap[p] for vmap in pattern.embeddings}),
        )
        occurrences: dict[str, set[str]] = {}
        for vmap in pattern.embeddings:
            occurrences.setdefault(vmap[position], set()).update(vmap)
        instance_ids = []
        for k, image in enumerate(sorted(occurrences)):
            members = sorted(occurrences[image])
            missing = [m for m in members if not graph.has_node(m)]
            if missing:
                raise StaleEmbeddingError(f"template {tid}: vanished nodes {missing}")
            inst_nid = node_id(NodeKind.TEMPLATE_INSTANCE, f"{tid}#{k}")
            if not graph.has_node(inst_nid):
                graph.add_node(
                    Node(
                        inst_nid,
                        NodeKind.TEMPLATE_INSTANCE,
                        f"{tid}#{k}",
                        {"templateId": tid, "members": ",".join(members)},
                        Provenance.MINING,
                    )
                )
                anchor = lowest_common_ancestor(graph, list(members)) or root_id
                graph.add_edge(Edge(EdgeKind.CONTAINS, anchor, inst_nid))
                graph.add_edge(Edge(EdgeKind.INSTANCE_OF, inst_nid, pattern_nid))
            instance_ids.append(inst_nid)
        annotations.append(TemplateAnnotation(tid, pattern, pattern_nid, instance_ids))
    return annotations


@dataclass
class TemplateCollapse:
    template_id: str
    support: int
    pattern_vertices: int
    instance_count: int
    nodes_removed: int


@dataclass
class GraphSummary:
    nodes_before: int
    edges_before: int
    nodes_after: int
    edges_after: int
    collapses: list[TemplateCollapse]

    def to_text(self) -> str:
        lines = [
            f"nodes_before = {self.nodes_before}",
            f"edges_before = {self.edges_before}",
        ]
        for c in self.collapses:
            lines.append(
                f"collapse {c.template_id}: support={c.support} "
                f"pattern_vertices={c.pattern_vertices} instances={c.instance_count} "
                f"nodes_removed={c.nodes_removed}"
            )
        lines.append(f"nodes_after = {self.nodes_after}")
        lines.append(f"edges_after = {self.edges_after}")
        return "\n".join(lines) + "\n"


def summarize(graph: PropertyGraph) -> GraphSummary:
    """Report how far collapsing each template's instances shrinks the view.

    The collapse is report-only: for each template (smallest patterns
    first, so nested templates collapse inside-out), the member nodes of
    every instance are folded into the instance node, and the remaining
    node and edge counts are stated. The stored graph is not modified.
    """
    templates = [
        (stored_template(n), str(n.labels.get("templateId", n.name)), n)
        for n in graph.query(kinds={NodeKind.TEMPLATE_PATTERN})
    ]
    removed: set[str] = set()
    collapses = []
    for pattern, template_id, tnode in sorted(templates, key=lambda t: (t[0].vertex_count, t[1])):
        instances = [graph.node(e.source) for e in graph.in_edges(tnode.id, EdgeKind.INSTANCE_OF)]
        fresh: set[str] = set()
        for inst in instances:
            members = str(inst.labels.get("members", ""))
            for member in members.split(","):
                if member and member not in removed:
                    fresh.add(member)
        removed |= fresh
        collapses.append(
            TemplateCollapse(
                template_id=template_id,
                support=pattern.support,
                pattern_vertices=pattern.vertex_count,
                instance_count=len(instances),
                nodes_removed=len(fresh),
            )
        )
    kept_edges = [
        e for e in graph.edges() if e.source not in removed and e.target not in removed
    ]
    return GraphSummary(
        nodes_before=graph.node_count,
        edges_before=graph.edge_count,
        nodes_after=graph.node_count - len(removed),
        edges_after=len(kept_edges),
        collapses=collapses,
    )


def write_templates_report(templates: list[Pattern], path) -> None:
    """Human-readable ``templates.txt``: one block per pattern."""
    blocks = []
    for idx, p in enumerate(templates, start=1):
        code_text = "; ".join(
            f"({i},{j},{li},{'+' if d == 1 else '-'}{el},{lj})"
            for (i, j, li, (d, el), lj) in p.code
        )
        lines = [
            f"template T{idx}",
            f"  support {p.support}",
            f"  embeddings {len(p.embeddings)}",
            f"  code {code_text}",
            f"  vertices {', '.join(f'{i}:{lab}' for i, lab in enumerate(p.vertex_labels))}",
        ]
        for (u, v, label) in p.arcs:
            lines.append(
                f"  edge {p.vertex_labels[u]}({u}) -{label}-> {p.vertex_labels[v]}({v})"
            )
        blocks.append("\n".join(lines))
    text = "\n\n".join(blocks) + ("\n" if blocks else "")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
