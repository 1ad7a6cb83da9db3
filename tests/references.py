"""Reference implementations the tests check the pipeline against.

Unlike ``oracles.py``, these build on the library's own primitives:

* ``mine_frequent`` is the general gSpan search over ``mining``'s DFS-code
  machinery (rightmost-path extension, minimal-code check, MNI support).
  It finds every frequent connected pattern.
* ``mine_closed_rooted`` is the closed rooted search the pipeline ran
  before it mined whole containment units: it walks the lattice of
  root-anchored patterns and returns exactly the rooted ones
  ``select_templates`` keeps of ``mine_frequent``'s result.
* ``min_dfs_code`` is the canonical code of a pattern graph.
* ``group_tree_shape`` and ``call_tree_shape`` compare a FunctionalGroup
  tree with the call tree it came from. ``call_tree_shape`` places each
  shared instance at the lowest common ancestor of its callers with its
  own walk over the call tree, not with the graph's LCA that R5 uses.
"""

from __future__ import annotations

import numpy as np

from plantrecon.graph import EdgeKind, NodeKind, PropertyGraph
from plantrecon.mining import (
    DfsCode,
    MiningGraph,
    Pattern,
    _check_caps,
    _Embedding,
    _Entry,
    _extension_entries,
    _extension_rank,
    _initial_codes,
    _materialize,
    _min_code_walk,
    _pattern_graph,
    code_to_structure,
)
from plantrecon.plc import CallTree

# -- mining -------------------------------------------------------------------


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


def _mni(embeddings: list[_Embedding]) -> int:
    if not embeddings:
        return 0
    return min(len({vmap[p] for vmap in embeddings}) for p in range(len(embeddings[0])))


def min_dfs_code(vertex_labels: tuple[str, ...], arcs: tuple[tuple[int, int, str], ...]) -> DfsCode:
    """The canonical (minimal) DFS code of a connected pattern graph."""
    return tuple(ce for ce, _ in _min_code_walk(_pattern_graph(vertex_labels, arcs)))


def _is_canonical(code: DfsCode) -> bool:
    """Stepwise minimality check with early exit at the first divergence."""
    walk = _min_code_walk(_pattern_graph(*code_to_structure(code)))
    return all(best == ce for (best, _), ce in zip(walk, code))


def mine_frequent(
    g: MiningGraph, min_support: int = 2, min_nodes: int = 3, max_nodes: int = 12
) -> list[Pattern]:
    """All patterns with MNI support >= min_support and a vertex count in
    [min_nodes, max_nodes], sorted by (-support, -size, code), found by
    the general gSpan search."""
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
        exts = _extension_entries(code, embeddings, g)
        for ce in sorted(exts, key=_extension_rank):
            if nverts >= max_nodes and ce[1] == nverts:  # forward, past the cap
                continue
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


# -- closed rooted search -----------------------------------------------------

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
    source, so every embedding meets each closing move at most once. A
    closing move that every embedding meets is returned alone, the
    smallest such (early termination, see
    ``mine_closed_rooted``)."""
    n = emb.shape[1]
    locate = _row_locator(emb, len(host.ids))
    owner, arc = _csr_expand(host.out_ptr, emb.ravel())
    row, i = np.divmod(owner, n)
    target, label = host.arc_dst[arc], host.arc_label[arc]
    j = locate(row, target)
    used = np.zeros((n, n, len(host.edge_label_names)), dtype=bool)
    used[tuple(np.array(arcs).T)] = True
    closing = (j >= 0) & ~used[i, j, label]
    code = host.move_code(n, i, j, label, 0)
    codes, counts = np.unique(code[closing], return_counts=True)
    every_row = codes[counts == len(emb)]
    if len(every_row):
        take = closing & (code == every_row[0])
        return code[take], row[take], emb[row[take], 0], arc[take]
    parts = [(code, row, emb[row, 0], arc, closing)]
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


def mine_closed_rooted(
    g: MiningGraph, min_support: int = 2, min_nodes: int = 3, max_nodes: int = 12
) -> list[Pattern]:
    """The templates: the closed patterns that one vertex spans along
    Contains arcs (no rooted super-pattern within ``max_nodes`` has their
    MNI support), within the caps, sorted by (-support, -size, code). They
    are the rooted patterns ``select_templates`` keeps of all the frequent
    patterns a general gSpan search finds, each the same ``Pattern``.

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

    Early termination (CloseGraph's, Yan & Han 2003, for closing arcs
    only): when an unused arc e between two of P's vertices lies on every
    embedding of P, only P + e is visited. Arcs are enumerated from their
    source, so e is a closing move with one row per embedding. P is then
    not closed, as P + e has its support. Let C be a closed pattern grown
    from P. Each embedding of C restricts to one of P, so each has e; C + e
    has C's embeddings and support, so C contains e, as C is closed.
    Adding e first and then C's other moves stays inside C, and each step
    keeps a support of at least C's. Induction on the arcs C has beyond
    the visited pattern applies the rule at every step. The rule depends
    only on the pattern's embeddings, so the image-keyed expansion stays
    exact, and it adds no vertex, so ``max_nodes`` cannot cut the path to
    C. A Contains child on every embedding of P gives no such rule: it
    adds a vertex, which ``max_nodes`` may leave no room for, and on an
    embedding of C every image the child could take may already be one
    of C's vertices.
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


# -- functional grouping ------------------------------------------------------


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


def _effective_group_parents(tree: CallTree) -> dict[str, str | None]:
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


def call_tree_shape(tree: CallTree) -> tuple:
    """The canonical shape of the call tree, comparable with
    group_tree_shape of the top group (shared instances placed at their
    callers' LCA, as R5 asks)."""
    eff = _effective_group_parents(tree)
    children: dict[str | None, list[str]] = {}
    for name, parent in eff.items():
        children.setdefault(parent, []).append(name)

    def shape(node: str | None) -> tuple:
        return tuple(sorted(shape(c) for c in children.get(node, [])))

    return shape(None)
