"""Frequent subgraph mining over the assembled graph.

Patterns are connected, directed, labeled subgraphs found by gSpan-style
search: grow canonical DFS codes along the rightmost path, prune
non-minimal codes, and prune by support. Because everything lives in one
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
    """Label-projected view of a property graph, ready for pattern search."""

    vertex_ids: list[str]
    vertex_labels: dict[str, str]
    edges: list[tuple[str, str, str]]  # (src, dst, label)

    def __post_init__(self) -> None:
        self._adj: dict[str, list[tuple[int, str, int, str]]] = {v: [] for v in self.vertex_ids}
        for idx, (src, dst, label) in enumerate(self.edges):
            self._adj[src].append((idx, dst, 1, label))
            self._adj[dst].append((idx, src, 0, label))

    def adjacency(self, vid: str) -> list[tuple[int, str, int, str]]:
        """(edge index, neighbor, direction flag, edge label) entries."""
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
    maximal: bool = False

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


class _PatternView:
    """Adjacency view over a pattern's own little graph (for min-code)."""

    def __init__(self, vertex_labels: tuple[str, ...], arcs: tuple[tuple[int, int, str], ...]):
        self.vertex_ids = list(range(len(vertex_labels)))
        self.vertex_labels = {i: lab for i, lab in enumerate(vertex_labels)}
        self._adj: dict[int, list[tuple[int, int, int, str]]] = {i: [] for i in self.vertex_ids}
        for idx, (src, dst, label) in enumerate(arcs):
            self._adj[src].append((idx, dst, 1, label))
            self._adj[dst].append((idx, src, 0, label))
        self.edge_total = len(arcs)

    def adjacency(self, vid: int):
        return self._adj[vid]


# An embedding is (vmap, eset): the tuple of graph vertices per code
# position, and the frozenset of used graph edge indices. Plain tuples:
# these are created millions of times during a mining run.
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


def _initial_codes(view) -> dict[CodeEdge, list[_Embedding]]:
    seeds: dict[CodeEdge, list[_Embedding]] = {}
    seen_edges: set[int] = set()
    for vid in view.vertex_ids:
        for (eidx, nb, direction, elabel) in view.adjacency(vid):
            if eidx in seen_edges:
                continue
            # Each underlying edge yields two oriented starts.
            seen_edges.add(eidx)
            src, dst = (vid, nb) if direction == 1 else (nb, vid)
            for a, b, d in ((src, dst, 1), (dst, src, 0)):
                ce: CodeEdge = (0, 1, view.vertex_labels[a], (d, elabel), view.vertex_labels[b])
                seeds.setdefault(ce, []).append(((a, b), frozenset({eidx})))
    return seeds


# Candidate extensions are enumerated as light (embedding index, edge
# index, new vertex | None) entries; full embeddings are materialized only
# for candidates that survive the support and canonicality pruning.
_Entry = tuple[int, int, object]


def _extension_entries(
    code: DfsCode,
    embeddings: list[_Embedding],
    view,
    max_nodes: int | None,
) -> dict[CodeEdge, list[_Entry]]:
    rmpath = _rightmost_path(code)
    maxtoc = rmpath[0]
    nverts = maxtoc + 1
    labels_by_pos: dict[int, str] = {}
    for (i, j, li, _, lj) in code:
        labels_by_pos.setdefault(i, li)
        labels_by_pos.setdefault(j, lj)
    exts: dict[CodeEdge, list[_Entry]] = {}
    allow_forward = max_nodes is None or nverts < max_nodes
    vlabels = view.vertex_labels
    adjacency = view.adjacency
    for emb_idx, (vmap, eset) in enumerate(embeddings):
        vset = set(vmap)
        # Backward: from the rightmost vertex to a rightmost-path vertex.
        rm_image = vmap[maxtoc]
        for j in rmpath[1:]:
            target_image = vmap[j]
            for (eidx, nb, direction, elabel) in adjacency(rm_image):
                if nb != target_image or eidx in eset:
                    continue
                ce: CodeEdge = (maxtoc, j, labels_by_pos[maxtoc], (direction, elabel), labels_by_pos[j])
                exts.setdefault(ce, []).append((emb_idx, eidx, None))
        # Forward: from any rightmost-path vertex to a fresh vertex.
        if allow_forward:
            for i in rmpath:
                src_image = vmap[i]
                src_label = labels_by_pos[i]
                for (eidx, nb, direction, elabel) in adjacency(src_image):
                    if nb in vset or eidx in eset:
                        continue
                    ce = (i, nverts, src_label, (direction, elabel), vlabels[nb])
                    exts.setdefault(ce, []).append((emb_idx, eidx, nb))
    return exts


def _entries_mni(entries: list[_Entry], embeddings: list[_Embedding], nverts: int) -> int:
    best = None
    for p in range(nverts):
        images = {embeddings[idx][0][p] for (idx, _, _) in entries}
        if best is None or len(images) < best:
            best = len(images)
            if best == 0:
                return 0
    if entries and entries[0][2] is not None:  # forward: the new position
        images = {nb for (_, _, nb) in entries}
        if best is None or len(images) < best:
            best = len(images)
    return best or 0


def _materialize(entries: list[_Entry], embeddings: list[_Embedding]) -> list[_Embedding]:
    out = []
    for (idx, eidx, nb) in entries:
        vmap, eset = embeddings[idx]
        if nb is None:
            out.append((vmap, eset | {eidx}))
        else:
            out.append((vmap + (nb,), eset | {eidx}))
    return out


def _extension_rank(ce: CodeEdge):
    """gSpan order of candidate extensions of one code: backward edges
    first (nearer targets first), then forward edges (deeper sources
    first), labels breaking ties."""
    i, j, _, el, lj = ce
    if j < i:  # backward
        return (0, j, el, lj)
    return (1, -i, el, lj)


def _mni(embeddings: list[_Embedding]) -> int:
    if not embeddings:
        return 0
    n = len(embeddings[0][0])
    best = None
    for p in range(n):
        images = {vmap[p] for (vmap, _) in embeddings}
        if best is None or len(images) < best:
            best = len(images)
    return best or 0


def _min_extension(
    code: DfsCode, embeddings: list[_Embedding], view
) -> tuple[CodeEdge, list[_Embedding]]:
    """The gSpan-minimal rightmost-path extension and its embeddings."""
    rmpath = _rightmost_path(code)
    maxtoc = rmpath[0]
    nverts = maxtoc + 1
    labels_by_pos: dict[int, str] = {}
    for (i, j, li, _, lj) in code:
        labels_by_pos.setdefault(i, li)
        labels_by_pos.setdefault(j, lj)
    best: CodeEdge | None = None
    best_rank = None
    best_embeddings: list[_Embedding] = []
    for (vmap, eset) in embeddings:
        vset = set(vmap)
        rm_image = vmap[maxtoc]
        for j in rmpath[1:]:
            target_image = vmap[j]
            for (eidx, nb, direction, elabel) in view.adjacency(rm_image):
                if eidx in eset or nb != target_image:
                    continue
                ce: CodeEdge = (maxtoc, j, labels_by_pos[maxtoc], (direction, elabel), labels_by_pos[j])
                rank = _extension_rank(ce)
                if best_rank is None or rank < best_rank:
                    best, best_rank, best_embeddings = ce, rank, []
                if rank == best_rank:
                    best_embeddings.append((vmap, eset | {eidx}))
        for i in rmpath:
            src_image = vmap[i]
            for (eidx, nb, direction, elabel) in view.adjacency(src_image):
                if eidx in eset or nb in vset:
                    continue
                ce = (i, nverts, labels_by_pos[i], (direction, elabel), view.vertex_labels[nb])
                rank = _extension_rank(ce)
                if best_rank is None or rank < best_rank:
                    best, best_rank, best_embeddings = ce, rank, []
                if rank == best_rank:
                    best_embeddings.append((vmap + (nb,), eset | {eidx}))
    assert best is not None
    return best, best_embeddings


def min_dfs_code(vertex_labels: tuple[str, ...], arcs: tuple[tuple[int, int, str], ...]) -> DfsCode:
    """Canonical (minimal) DFS code of a connected pattern graph."""
    view = _PatternView(vertex_labels, arcs)
    seeds = _initial_codes(view)
    best_first = min(seeds, key=lambda ce: (ce[2], ce[3], ce[4]))
    code: list[CodeEdge] = [best_first]
    embeddings = seeds[best_first]
    while len(code) < view.edge_total:
        best, embeddings = _min_extension(tuple(code), embeddings, view)
        code.append(best)
    return tuple(code)


def _is_canonical(code: DfsCode) -> bool:
    """Stepwise minimality check with early exit at the first divergence."""
    labels, arcs = code_to_structure(code)
    view = _PatternView(labels, arcs)
    seeds = _initial_codes(view)
    first = min(seeds, key=lambda ce: (ce[2], ce[3], ce[4]))
    if first != code[0]:
        return False
    embeddings = seeds[first]
    for k in range(1, len(code)):
        best, embeddings = _min_extension(code[:k], embeddings, view)
        if best != code[k]:
            return False
    return True


def _root_anchored(pattern: Pattern) -> bool:
    """True when one pattern vertex reaches all others along Contains arcs."""
    children: dict[int, list[int]] = {}
    for (u, v, label) in pattern.arcs:
        if label == EdgeKind.CONTAINS.value:
            children.setdefault(u, []).append(v)
    for start in range(pattern.vertex_count):
        seen = {start}
        stack = [start]
        while stack:
            for child in children.get(stack.pop(), []):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        if len(seen) == pattern.vertex_count:
            return True
    return False


def mine(
    g: MiningGraph,
    min_support: int = 2,
    min_nodes: int = 3,
    max_nodes: int = 12,
    root_anchored_only: bool = False,
) -> list[Pattern]:
    """All patterns with MNI support >= min_support and a vertex count in
    [min_nodes, max_nodes], sorted by (-support, -size, code)."""
    if min_support < 2:
        raise MiningError("min_support must be >= 2")
    if not (2 <= min_nodes <= max_nodes):
        raise MiningError("need 2 <= min_nodes <= max_nodes")
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
                    embeddings=sorted(vmap for (vmap, _) in embeddings),
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

    for ce in sorted(seeds, key=lambda c: (c[2], c[3], c[4])):
        embeddings = seeds[ce]
        support = _mni(embeddings)
        if support < min_support:
            continue
        if not _is_canonical((ce,)):
            continue
        recurse((ce,), embeddings, support)

    if root_anchored_only:
        results = [p for p in results if _root_anchored(p)]
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
    result = []
    for pattern in sorted(kept, key=Pattern.sort_key):
        result.append(
            Pattern(
                code=pattern.code,
                support=pattern.support,
                embeddings=pattern.embeddings,
                vertex_labels=pattern.vertex_labels,
                arcs=pattern.arcs,
                maximal=True,
            )
        )
    return result


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
    template_nodes = graph.query(kinds={NodeKind.TEMPLATE_PATTERN})

    def order_key(n: Node):
        structure = json.loads(str(n.labels.get("patternCode", '{"vertices": []}')))
        return (len(structure["vertices"]), str(n.labels.get("templateId", n.name)))

    removed: set[str] = set()
    collapses = []
    for tnode in sorted(template_nodes, key=order_key):
        structure = json.loads(str(tnode.labels["patternCode"]))
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
                template_id=str(tnode.labels.get("templateId", tnode.name)),
                support=int(tnode.labels.get("support", 0)),
                pattern_vertices=len(structure["vertices"]),
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
