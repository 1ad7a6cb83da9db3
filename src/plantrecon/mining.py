"""Template mining over the assembled graph: whole containment units.

The plant's templates are its repeated units: a place is a
FunctionalGroup with everything it contains, a row a group with its
component and its places. The pipeline's search, ``mine``, takes each
vertex's bottom-up subtree (the vertex, its Contains descendants and
every arc among them), groups these units into isomorphism classes, and
reports each class that repeats, with its canonical code (gSpan's
minimal DFS code along the rightmost path) and its embeddings. Its cost
grows with the units, not with the lattice of partly filled ones.
Because everything lives in one large graph rather than a transaction
database, support is minimum-image-based (MNI): the number of distinct
graph vertices seen at the pattern position with the fewest distinct
images, counted over the whole graph, so a unit inside a larger unit
counts too. This deliberately diverges from the transaction-based
support of textbook gSpan. The general gSpan search, ``mine_frequent``,
remains in ``tests/references.py`` as a reference over the same DFS-code
machinery.

Edge direction is part of the edge label, so ``A -Contains-> B`` and
``B -Contains-> A`` are different patterns. The mining projection leaves
out, by default, every node kind that is not part of the plant's own
functional structure (see ``DEFAULT_EXCLUDED_KINDS``).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .errors import DataError
from .graph import (
    DEFAULT_EXCLUDED_KINDS,
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
        duplicates = sorted(e for e, count in Counter(self.edges).items() if count > 1)
        if duplicates:
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
# | None) entries; full embeddings are materialized only for the extension
# taken.
_Entry = tuple[int, object]


def _grow(state: tuple | None, ce: CodeEdge) -> tuple:
    """What a DFS code's extensions depend on, carried along the code: its
    rightmost path (rightmost vertex first, root last), position labels
    and used arcs after the code edge ``ce`` (``state`` None for the first
    edge). A forward edge from i to the new position j makes the path j
    and the old path from i on; a backward edge leaves it as it was."""
    i, j, li, (direction, elabel), lj = ce
    rmpath, labels, arcs = state or ((i,), (li,), frozenset())
    arcs = arcs | {(i, j, elabel) if direction == 1 else (j, i, elabel)}
    if j < i:
        return rmpath, labels, arcs
    return (j,) + rmpath[rmpath.index(i):], labels + (lj,), arcs


def _extension_entries(
    state: tuple, embeddings: list[_Embedding], view: MiningGraph
) -> dict[CodeEdge, list[_Entry]]:
    rmpath, labels_by_pos, used_arcs = state
    maxtoc = rmpath[0]
    nverts = len(labels_by_pos)
    exts: dict[CodeEdge, list[_Entry]] = {}
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
        vset = set(vmap)
        for i in rmpath:
            src_label = labels_by_pos[i]
            for (nb, direction, elabel) in adjacency(vmap[i]):
                if nb in vset:
                    continue
                ce = (i, nverts, src_label, (direction, elabel), vlabels[nb])
                exts.setdefault(ce, []).append((emb_idx, nb))
    return exts


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


def _min_code_walk(view: MiningGraph, keep=lambda vmap: True):
    """Yield the minimal DFS code of a connected pattern graph, edge by
    edge. Each code edge comes with one map from the code positions so far
    to the pattern graph's vertices that realises the code.

    ``keep`` may drop maps, but must keep at least one map of each orbit
    under a group of the pattern graph's automorphisms (see
    ``_first_entry_rule``). Maps in one orbit realise the same code and
    have the same extensions, so the minimum is unchanged, and a row of k
    interchangeable places is walked with one map instead of k!."""
    seeds = _initial_codes(view)
    first = min(seeds)
    state = _grow(None, first)
    embeddings = [m for m in seeds[first] if keep(m)]
    yield first, embeddings[0]
    for _ in range(len(view.edges) - 1):
        exts = _extension_entries(state, embeddings, view)
        best = min(exts, key=_extension_rank)
        embeddings = [m for m in _materialize(exts[best], embeddings) if keep(m)]
        state = _grow(state, best)
        yield best, embeddings[0]


_CONTAINS = EdgeKind.CONTAINS.value


def _check_caps(min_support: int, min_nodes: int, max_nodes: int) -> None:
    if min_support < 2:
        raise MiningError("min_support must be >= 2")
    if not (2 <= min_nodes <= max_nodes):
        raise MiningError("need 2 <= min_nodes <= max_nodes")


class _ContainsForest:
    """A labeled graph coded as integers (vertices in sorted-id order) with
    its Contains forest: each vertex's out-arcs, parent, children (in
    index order, and by label) and subtree size; ``top_down`` lists
    parents first. Two Contains parents of a vertex, or a Contains cycle,
    raise ``MiningError``: a unit is a vertex with all it contains."""

    def __init__(self, g: MiningGraph) -> None:
        self.ids = sorted(g.vertex_ids)
        number = {v: k for k, v in enumerate(self.ids)}
        self.labels = [g.vertex_labels[v] for v in self.ids]
        n = len(self.ids)
        self.arcs = {(number[s], number[d], label) for (s, d, label) in g.edges}
        self.out: list[list[tuple[int, str]]] = [[] for _ in range(n)]
        self.parent = [-1] * n
        self.children: list[list[int]] = [[] for _ in range(n)]
        for (s, d, label) in sorted(self.arcs):
            self.out[s].append((d, label))
            if label == _CONTAINS:
                if self.parent[d] >= 0:
                    raise MiningError(f"{self.ids[d]!r} has two Contains parents")
                self.parent[d] = s
                self.children[s].append(d)
        self.top_down = [v for v in range(n) if self.parent[v] < 0]
        for v in self.top_down:
            self.top_down.extend(self.children[v])
        if len(self.top_down) < n:
            raise MiningError("the Contains arcs form a cycle")
        self.size = [1] * n
        self.kids: list[dict[str, list[int]]] = [{} for _ in range(n)]
        for v in reversed(self.top_down):
            for c in self.children[v]:
                self.size[v] += self.size[c]
                self.kids[v].setdefault(self.labels[c], []).append(c)

    def subtree(self, v: int) -> list[int]:
        """v and its descendants, parents before children."""
        out = [v]
        for u in out:
            out.extend(self.children[u])
        return out

    def shapes(self, max_size: int) -> dict[int, int]:
        """The AHU code of each subtree of at most ``max_size`` vertices,
        numbered: equal numbers for isomorphic Contains subtrees."""
        shape: dict[int, int] = {}
        number: dict[tuple, int] = {}
        for v in reversed(self.top_down):
            if self.size[v] <= max_size:
                code = (self.labels[v], tuple(sorted(shape[c] for c in self.children[v])))
                shape[v] = number.setdefault(code, len(number))
        return shape


def _swap_classes(tree: _ContainsForest) -> list[list[list[int]]]:
    """The sibling subtrees of a tree-shaped pattern that automorphisms
    exchange. S and T are alike when an automorphism maps S's root to T's
    and fixes every vertex outside S and T, so that it swaps S and T. That
    is an equivalence: conjugating the S-T swap by a T-U swap swaps S and U.
    Each class lists its subtrees, root first, in index order of their
    roots; classes come parents first."""
    shape = tree.shapes(len(tree.ids))

    def swappable(s: list[int], t: list[int]) -> bool:
        inside = set(s + t)

        def pinned(root: int) -> Pattern:
            # Outside vertices get labels only they match; so does the root.
            labels = tuple(() if v == root else x if v in inside else (v,)
                           for v, x in enumerate(tree.labels))
            return Pattern((), 0, [], labels, tuple(tree.arcs))

        return find_monomorphism(pinned(s[0]), pinned(t[0]))

    classes = []
    for x in tree.top_down:
        found: list[list[list[int]]] = []
        for c in tree.children[x]:
            subtree = tree.subtree(c)
            alike = (cls for cls in found if shape[cls[0][0]] == shape[c])
            cls = next((cls for cls in alike if swappable(cls[0], subtree)), None)
            if cls is None:
                found.append([subtree])
            else:
                cls.append(subtree)
        classes += [cls for cls in found if len(cls) > 1]
    return classes


def _first_entry_rule(classes):
    """The ``keep`` rule of ``_min_code_walk`` for a pattern's swap
    classes: a map must enter the subtrees of each class in their listed
    order. Each map has an automorphic image that does: permute each
    class's subtrees into the order the map enters them, parents' classes
    first. A permutation below a subtree maps that subtree onto itself,
    so it keeps the classes above in order."""
    member: dict[int, list[tuple[int, int]]] = {}
    for c, cls in enumerate(classes):
        for i, subtree in enumerate(cls):
            for v in subtree:
                member.setdefault(v, []).append((c, i))

    def keep(vmap) -> bool:
        entered = [0] * len(classes)
        for v in vmap:
            for c, i in member.get(v, ()):
                if i > entered[c]:
                    return False
                entered[c] += i == entered[c]
        return True

    return keep


def _unit(forest: _ContainsForest, shape: dict, v: int) -> tuple[tuple, tuple]:
    """The bottom-up subtree of v (v, its Contains descendants and every
    arc among them) as vertex labels and arcs, top-down from v, and its
    bucket key: its AHU code with the codes and label of each other arc."""
    order = [v]
    for u in order:
        order.extend(sorted(forest.children[u], key=lambda c: (shape[c], c)))
    position = {u: k for k, u in enumerate(order)}
    arcs = sorted(
        (position[u], position[w], label)
        for u in order
        for (w, label) in forest.out[u]
        if w in position
    )
    others = sorted(
        (shape[order[i]], label, shape[order[j]]) for (i, j, label) in arcs if label != _CONTAINS
    )
    return (tuple(forest.labels[u] for u in order), arcs), (shape[v], tuple(others))


def _unit_embeddings(forest: _ContainsForest, tree: _ContainsForest, classes) -> list[tuple]:
    """The embeddings of a unit's pattern, whose positions run top-down,
    up to its swaps: the roots of each class's subtrees take increasing
    images. Contains arcs go to host Contains children, and the forest
    keeps different children's subtrees apart, so distinct images among
    siblings make a map injective."""
    n = len(tree.ids)
    checks: list[list] = [[] for _ in range(n)]
    for (u, w, label) in tree.arcs:
        if label != _CONTAINS:
            checks[max(u, w)].append((u, w, label))
    after, later = [-1] * n, [0] * n
    for cls in classes:
        for i, subtree in enumerate(cls):
            after[subtree[0]] = cls[i - 1][0] if i else -1
            later[subtree[0]] = len(cls) - 1 - i
    vmap = [0] * n
    used: set[int] = set()
    found: list[tuple[int, ...]] = []

    def extend(p: int) -> None:
        if p == n:
            found.append(tuple(vmap))
            return
        low = vmap[after[p]] if after[p] >= 0 else -1
        options = forest.kids[vmap[tree.parent[p]]].get(tree.labels[p], [])
        # Leave an image for each later subtree of p's class.
        for h in options[: len(options) - later[p]]:
            vmap[p] = h
            if h > low and h not in used and all(
                (vmap[u], vmap[w], label) in forest.arcs for (u, w, label) in checks[p]
            ):
                used.add(h)
                extend(p + 1)
                used.discard(h)

    for r, label in enumerate(forest.labels):
        if label == tree.labels[0] and forest.size[r] >= n:
            vmap[0] = r
            extend(1)
    return found


def _unit_template(forest: _ContainsForest, unit: MiningGraph, classes, found) -> Pattern:
    """A unit's template from its swap classes and embeddings (position 0
    is the root), re-indexed to the positions of its canonical code."""
    code: DfsCode = ()
    for ce, positions in _min_code_walk(unit, _first_entry_rule(classes)):
        code += (ce,)
    labels, arcs = code_to_structure(code)
    return Pattern(
        code=code,
        support=len({vmap[0] for vmap in found}),
        embeddings=sorted(tuple(forest.ids[vmap[p]] for p in positions) for vmap in found),
        vertex_labels=labels,
        arcs=arcs,
    )


def mine(
    g: MiningGraph, min_support: int = 2, min_nodes: int = 3, max_nodes: int = 12
) -> list[Pattern]:
    """The templates, the whole containment units that repeat, sorted by
    (-support, -size, code), each with its canonical code. A unit is a
    vertex's bottom-up subtree (Valiente 2001): the vertex, its Contains
    descendants and every arc among them. Units within the caps are
    bucketed by their AHU code (Aho, Hopcroft & Ullman 1974) with the codes
    of their other arcs. Units in a bucket have equal sizes and arc
    counts, so one is isomorphic to another exactly when it embeds at the
    other's root. A class of at least ``min_support`` units is a template.

    Its support is its MNI support over the whole view, where a unit may
    also sit inside a larger one, from a rooted, non-induced match up to
    symmetry: sibling subtrees that an automorphism swaps
    (``_swap_classes``) take increasing images, so a row of k
    interchangeable places has one embedding per row instead of k!. Every
    embedding is an enumerated one composed with an automorphism the
    swaps generate: sort each class's images, parents' classes first; a
    swap below a subtree maps it onto itself and leaves the classes above
    sorted. So a position's images over all embeddings are its orbit's
    images over the enumerated ones, and each embedding has the vertex
    set and root image of an enumerated one. In a Contains forest a
    position's image fixes the root's (its ancestor that many levels up),
    and the root is its own orbit, so the root's images set the MNI
    support. For ``mark_templates``, any position with that many images
    partitions the embeddings as the root does, so the per-image union
    through the support-setting position is the same over the enumerated
    embeddings as over all of them.
    """
    _check_caps(min_support, min_nodes, max_nodes)
    forest = _ContainsForest(g)
    shape = forest.shapes(max_nodes)
    buckets: dict[tuple, list[tuple[int, tuple]]] = {}
    for v in range(len(forest.ids)):
        if min_nodes <= forest.size[v] <= max_nodes:
            unit, key = _unit(forest, shape, v)
            buckets.setdefault(key, []).append((v, unit))
    templates = []
    for units in buckets.values():
        while len(units) >= min_support:
            unit = _pattern_graph(*units[0][1])
            tree = _ContainsForest(unit)
            classes = _swap_classes(tree)
            found = _unit_embeddings(forest, tree, classes)
            roots = {vmap[0] for vmap in found}
            if sum(v in roots for v, _ in units) >= min_support:
                templates.append(_unit_template(forest, unit, classes, found))
            units = [(v, other) for (v, other) in units if v not in roots]
    return sorted(templates, key=Pattern.sort_key)


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
