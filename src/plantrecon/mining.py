"""Frequent subgraph mining over the assembled graph.

Patterns are connected, directed, labeled subgraphs. The pipeline's
search, ``mine``, grows only root-anchored patterns, those one vertex
spans along Contains arcs (the plant's repeated containment units): add a
Contains child to a pattern vertex, or close an unused arc between two
pattern vertices, and expand each pattern once. It reports only the
closed patterns, those that no rooted super-pattern of equal support
contains, which are exactly the templates ``select_templates`` keeps. It
works on the graph coded as integers and extends all embeddings of a
pattern in one vectorized pass. The general search, ``mine_frequent``,
the reference ``mine`` is checked against, is gSpan: grow
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

import numpy as np

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
    """Test reference: the canonical (minimal) DFS code of a connected pattern graph."""
    return tuple(ce for ce, _ in _min_code_walk(_pattern_graph(vertex_labels, arcs)))


def _is_canonical(code: DfsCode) -> bool:
    """Stepwise minimality check with early exit at the first divergence."""
    walk = _min_code_walk(_pattern_graph(*code_to_structure(code)))
    return all(best == ce for (best, _), ce in zip(walk, code))


_CONTAINS = EdgeKind.CONTAINS.value


class _IntHost:
    """A mining graph coded as integers, for the rooted search.

    Vertices are numbered in sorted-id order; vertex and edge labels are
    coded in sorted order. Out-arcs are CSR arrays sorted by (source,
    target, label), so an arc's index is its host-arc code; Contains
    parents are CSR arrays by child, pointing at those arc indices.
    """

    def __init__(self, g: MiningGraph) -> None:
        self.ids = sorted(g.vertex_ids)
        number = {v: k for k, v in enumerate(self.ids)}
        self.vertex_label_names = sorted({g.vertex_labels[v] for v in self.ids})
        self.edge_label_names = sorted({label for (_, _, label) in g.edges})
        vcode = {label: k for k, label in enumerate(self.vertex_label_names)}
        ecode = {label: k for k, label in enumerate(self.edge_label_names)}
        self.vertex_labels = np.array([vcode[g.vertex_labels[v]] for v in self.ids], dtype=np.int64)
        arcs = sorted((number[s], number[d], ecode[label]) for (s, d, label) in g.edges)
        self.arc_src, self.arc_dst, self.arc_label = np.array(arcs, dtype=np.int64).reshape(-1, 3).T
        vertices = np.arange(len(self.ids) + 1)
        self.out_ptr = np.searchsorted(self.arc_src, vertices)
        self.contains = ecode.get(_CONTAINS, -1)
        contains = np.flatnonzero(self.arc_label == self.contains)
        self.parent_arc = contains[np.argsort(self.arc_dst[contains], kind="stable")]
        self.parent_ptr = np.searchsorted(self.arc_dst[self.parent_arc], vertices)

    def move_code(self, n: int, i, j, label, new_label):
        """One integer per move (i, j, edge label, new vertex label + 1,
        or 0 for a closing arc) of an n-vertex pattern, ordered as the tuple."""
        labels = len(self.vertex_label_names) + 1
        return ((i * (n + 1) + j) * len(self.edge_label_names) + label) * labels + new_label

    def decode_move(self, n: int, code: int) -> tuple[int, int, int, int]:
        """The (i, j, edge label, new vertex label + 1) of a move code."""
        rest, new_label = divmod(code, len(self.vertex_label_names) + 1)
        rest, label = divmod(rest, len(self.edge_label_names))
        i, j = divmod(rest, n + 1)
        return i, j, label, new_label


def _csr_expand(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (k, item) with item in ptr[rows[k]]:ptr[rows[k] + 1]."""
    start = ptr[rows]
    count = ptr[rows + 1] - start
    owner = np.repeat(np.arange(len(rows)), count)
    item = np.arange(len(owner)) + np.repeat(start - np.cumsum(count) + count, count)
    return owner, item


def _row_locator(emb: np.ndarray, span: int):
    """A function giving the position of values[k] in the embedding
    emb[rows[k]], or -1. Vertex numbers are below ``span``."""
    order = np.argsort(emb, axis=1)
    keys = (np.arange(len(emb))[:, None] * span + np.take_along_axis(emb, order, axis=1)).ravel()
    positions = order.ravel()

    def locate(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        query = rows * span + values
        at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
        return np.where(keys[at] == query, positions[at], -1)

    return locate


def _spanning_positions(arcs, contains: int) -> list[int]:
    """Positions that reach every other along the pattern's Contains arcs:
    position 0, from which the pattern was grown, and those that reach it."""
    parents: dict[int, list[int]] = {}
    for (i, j, label) in arcs:
        if label == contains:
            parents.setdefault(j, []).append(i)
    found = {0}
    stack = [0]
    while stack:
        for p in parents.get(stack.pop(), ()):
            if p not in found:
                found.add(p)
                stack.append(p)
    return sorted(found)


def _rooted_moves(host: _IntHost, emb: np.ndarray, arcs, grow: bool):
    """Every one-arc extension of every embedding of a rooted pattern, as
    parallel arrays (move code, embedding row, image of the new position,
    host arc). The moves are: an unused arc of any label between two
    pattern vertices (the new position's image is position 0's); and,
    when ``grow``, a fresh Contains child of any vertex and a fresh
    Contains parent of any spanning vertex (a move from the new position
    n, used only to test closedness). Arcs are enumerated from their
    source, so every embedding meets each closing move once."""
    n = emb.shape[1]
    locate = _row_locator(emb, len(host.ids))
    owner, arc = _csr_expand(host.out_ptr, emb.ravel())
    row, i = np.divmod(owner, n)
    target, label = host.arc_dst[arc], host.arc_label[arc]
    j = locate(row, target)
    used = np.zeros((n, n, len(host.edge_label_names)), dtype=bool)
    used[tuple(np.array(arcs).T)] = True
    closing = (j >= 0) & ~used[i, j, label]
    parts = [(host.move_code(n, i, j, label, 0), row, emb[row, 0], arc, closing)]
    if grow:
        forward = (j < 0) & (label == host.contains)
        new_label = host.vertex_labels[target] + 1
        parts.append((host.move_code(n, i, n, label, new_label), row, target, arc, forward))
        spanning = np.array(_spanning_positions(arcs, host.contains))
        owner, item = _csr_expand(host.parent_ptr, emb[:, spanning].ravel())
        row, k = np.divmod(owner, len(spanning))
        arc = host.parent_arc[item]
        parent = host.arc_src[arc]
        new_label = host.vertex_labels[parent] + 1
        outside = locate(row, parent) < 0
        code = host.move_code(n, n, spanning[k], host.contains, new_label)
        parts.append((code, row, parent, arc, outside))
    kept = [[column[mask] for column in columns] for (*columns, mask) in parts]
    return tuple(np.concatenate(column) for column in zip(*kept))


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    mask = np.ones(len(values), dtype=bool)
    mask[1:] = values[1:] != values[:-1]
    return mask


def _move_supports(
    emb: np.ndarray, row: np.ndarray, image: np.ndarray, rank: np.ndarray, moves: int, span: int
) -> np.ndarray:
    """MNI support per move from one sort of (move, position, image) codes:
    distinct images per (move, position), minimum over the positions."""
    width = emb.shape[1] + 1
    images = np.column_stack((emb[row], image))
    codes = ((rank[:, None] * width + np.arange(width)) * span + images).ravel()
    codes.sort()
    first = codes[_run_starts(codes)]
    return np.bincount(first // span, minlength=moves * width).reshape(moves, width).min(axis=1)


def _image_key(arc_ids: np.ndarray) -> tuple[int, ...]:
    """The smallest sorted tuple of host-arc codes over a pattern's
    embeddings. Each embedding's image is a copy of the pattern, so two
    patterns have the same key exactly when they are isomorphic. Only the
    images holding the smallest arc can give it."""
    lowest = arc_ids.min(axis=1)
    candidates = np.sort(arc_ids[lowest == lowest.min()], axis=1)
    return min(map(tuple, candidates.tolist()))


def _rooted_pattern(host: _IntHost, labels, arcs, emb: np.ndarray, support: int) -> Pattern:
    """The string-id pattern of an int-coded one: canonical code, and the
    embeddings re-indexed to its positions and sorted."""
    vertex_labels = tuple(host.vertex_label_names[x] for x in labels)
    pattern_arcs = tuple((i, j, host.edge_label_names[x]) for (i, j, x) in arcs)
    code: DfsCode = ()
    for ce, positions in _min_code_walk(_pattern_graph(vertex_labels, pattern_arcs)):
        code += (ce,)
    code_labels, code_arcs = code_to_structure(code)
    ids = host.ids
    return Pattern(
        code=code,
        support=support,
        embeddings=sorted(tuple(ids[v] for v in row) for row in emb[:, list(positions)].tolist()),
        vertex_labels=code_labels,
        arcs=code_arcs,
    )


def _check_caps(min_support: int, min_nodes: int, max_nodes: int) -> None:
    if min_support < 2:
        raise MiningError("min_support must be >= 2")
    if not (2 <= min_nodes <= max_nodes):
        raise MiningError("need 2 <= min_nodes <= max_nodes")


def mine(
    g: MiningGraph, min_support: int = 2, min_nodes: int = 3, max_nodes: int = 12
) -> list[Pattern]:
    """The templates: the closed patterns that one vertex spans along
    Contains arcs (no rooted super-pattern within ``max_nodes`` has their
    MNI support), within the caps, sorted by (-support, -size, code). They
    are the rooted patterns ``select_templates`` keeps of
    ``mine_frequent``'s, each the same ``Pattern``.

    Every rooted pattern is reached from a Contains arc by adding Contains
    children and closing arcs: take away the arcs outside one Contains
    spanning tree, then the tree's leaves one at a time. MNI is
    anti-monotone, so pruning by support loses none of them, and each
    pattern is expanded once, keyed by its smallest embedding image.

    A rooted strict super-pattern Q of equal support exists exactly when
    one move has P's support: a closing arc, a Contains child, or a
    Contains parent above a vertex that spans P. If Q has an arc between
    P's vertices that P lacks, that is a closing move; else, if a
    Contains arc of Q leads from P to a new vertex, a child move; else
    Q's root lies outside P, and the Contains path from it to P's root
    enters P once, at a vertex that reaches that root inside P and so
    spans P. The one-move pattern lies between P and Q, so its support
    equals theirs.
    """
    _check_caps(min_support, min_nodes, max_nodes)
    host = _IntHost(g)
    span = len(host.ids)
    results: list[Pattern] = []
    seen: set[tuple[int, ...]] = set()

    def visit(labels, arcs, emb: np.ndarray, arc_ids: np.ndarray, support: int) -> None:
        n = len(labels)
        move, row, image, arc = _rooted_moves(host, emb, arcs, n < max_nodes)
        order = np.argsort(move, kind="stable")
        move, row, image, arc = move[order], row[order], image[order], arc[order]
        new_move = _run_starts(move)
        starts = np.flatnonzero(new_move)
        rank = np.cumsum(new_move) - 1
        supports = _move_supports(emb, row, image, rank, len(starts), span)
        if n >= min_nodes and not (supports == support).any():
            results.append(_rooted_pattern(host, labels, arcs, emb, support))
        ends = np.r_[starts[1:], len(move)]
        for start, end, child_support in zip(starts.tolist(), ends.tolist(), supports.tolist()):
            i, j, label, new_label = host.decode_move(n, int(move[start]))
            if i == n or child_support < min_support:
                continue
            rows = row[start:end]
            child_arc_ids = np.column_stack((arc_ids[rows], arc[start:end]))
            key = _image_key(child_arc_ids)
            if key in seen:
                continue
            seen.add(key)
            if j == n:
                visit(labels + (new_label - 1,), arcs + ((i, j, label),),
                      np.column_stack((emb[rows], image[start:end])), child_arc_ids, child_support)
            else:
                visit(labels, arcs + ((i, j, label),), emb[rows], child_arc_ids, child_support)

    contains = np.flatnonzero(host.arc_label == host.contains)
    src, dst = host.arc_src[contains], host.arc_dst[contains]
    pair = host.vertex_labels[src] * len(host.vertex_label_names) + host.vertex_labels[dst]
    for labels in np.unique(pair).tolist():
        hit = pair == labels
        emb = np.column_stack((src[hit], dst[hit]))
        support = min(len(np.unique(emb[:, 0])), len(np.unique(emb[:, 1])))
        if support >= min_support:
            seed_labels = divmod(labels, len(host.vertex_label_names))
            visit(seed_labels, ((0, 1, host.contains),), emb, contains[hit][:, None], support)
    return sorted(results, key=Pattern.sort_key)


def mine_frequent(
    g: MiningGraph, min_support: int = 2, min_nodes: int = 3, max_nodes: int = 12
) -> list[Pattern]:
    """All patterns with MNI support >= min_support and a vertex count in
    [min_nodes, max_nodes], sorted by (-support, -size, code), found by
    the general gSpan search. The pipeline does not run it; it is the
    reference the tests check ``mine`` against."""
    _check_caps(min_support, min_nodes, max_nodes)
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
