"""Reference implementations the tests check the pipeline against.

Unlike ``oracles.py``, these build on the library's own primitives:

* ``mine_frequent`` is the general gSpan search over ``mining``'s DFS-code
  machinery (rightmost-path extension, minimal-code check, MNI support).
  It finds every frequent connected pattern.
* ``min_dfs_code`` is the canonical code of a pattern graph.
* ``group_tree_shape`` and ``call_tree_shape`` compare a FunctionalGroup
  tree with the call tree it came from. ``call_tree_shape`` places each
  shared instance at the lowest common ancestor of its callers with its
  own walk over the call tree, not with the graph's LCA that R5 uses.
"""

from __future__ import annotations

from plantrecon.graph import NodeKind, PropertyGraph
from plantrecon.mining import (
    DfsCode,
    MiningGraph,
    Pattern,
    _check_caps,
    _Embedding,
    _Entry,
    _extension_entries,
    _extension_rank,
    _grow,
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

    def recurse(code: DfsCode, state: tuple, embeddings: list[_Embedding], support: int) -> None:
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
        exts = _extension_entries(state, embeddings, g)
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
            recurse(child_code, _grow(state, ce), _materialize(entries, embeddings), child_support)

    for ce in sorted(seeds):
        embeddings = seeds[ce]
        support = _mni(embeddings)
        if support < min_support:
            continue
        if not _is_canonical((ce,)):
            continue
        recurse((ce,), _grow(None, ce), embeddings, support)

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
