"""Independent brute-force oracles used by the tests.

Everything here is deliberately written from first principles, sharing no
code with the library paths it checks: a full-table DTW dynamic program
over plain Python floats, exhaustive connected-subgraph enumeration with
naive embedding counting for mining, whole-unit classes found by
exhaustive isomorphism, pair-counting ARI, signal change events found
one sample at a time, and trace CSVs loaded one csv row at a time.
"""

from __future__ import annotations

import csv
import math
from array import array
from itertools import combinations

import numpy as np

from plantrecon.traces import (
    IO_COLUMNS,
    RTLS_COLUMNS,
    RTLS_LABEL_COLUMN,
    IoTrace,
    MalformedRowError,
    RtlsTrace,
)

INF = math.inf


# -- DTW --------------------------------------------------------------------


def _pointify(series):
    out = []
    for p in series:
        if isinstance(p, (int, float)):
            out.append((float(p),))
        else:
            out.append(tuple(float(x) for x in p))
    return out


def dtw_oracle(a, b) -> float:
    """Full O(nm) dynamic-programming table, match/insert/delete steps,
    per-point Euclidean cost, no normalization."""
    pa, pb = _pointify(a), _pointify(b)
    n, m = len(pa), len(pb)
    assert n > 0 and m > 0
    table = [[INF] * (m + 1) for _ in range(n + 1)]
    table[0][0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            acc = 0.0
            for xa, xb in zip(pa[i - 1], pb[j - 1]):
                d = xa - xb
                acc = acc + d * d
            cost = math.sqrt(acc)
            best = table[i - 1][j - 1]
            if table[i - 1][j] < best:
                best = table[i - 1][j]
            if table[i][j - 1] < best:
                best = table[i][j - 1]
            table[i][j] = cost + best
    return table[n][m]


# -- Small labeled directed graphs ------------------------------------------
# A "tiny graph" here is (vlabels, arcs): vlabels is a dict vertex -> label
# (or a sequence for integer vertices), arcs is a list of (u, v, label).


def _vlabel_map(vlabels):
    if isinstance(vlabels, dict):
        return dict(vlabels)
    return {i: lab for i, lab in enumerate(vlabels)}


def enumerate_embeddings(p_vlabels, p_arcs, h_vlabels, h_arcs):
    """All injective, label- and arc-preserving maps pattern -> host."""
    pv = _vlabel_map(p_vlabels)
    hv = _vlabel_map(h_vlabels)
    h_arc_set = set(h_arcs)

    # Connected matching order: each vertex after the first must touch an
    # already-ordered vertex.
    order = []
    remaining = set(pv)
    adjacency = {v: set() for v in pv}
    for (u, v, _) in p_arcs:
        adjacency[u].add(v)
        adjacency[v].add(u)
    while remaining:
        if order:
            nxt = sorted(
                v for v in remaining if any(w in order for w in adjacency[v])
            )
            pick = nxt[0] if nxt else sorted(remaining)[0]
        else:
            pick = sorted(remaining)[0]
        order.append(pick)
        remaining.discard(pick)

    results = []
    mapping: dict = {}
    used: set = set()

    def backtrack(k: int) -> None:
        if k == len(order):
            results.append(dict(mapping))
            return
        pvert = order[k]
        for hvert in hv:
            if hvert in used or hv[hvert] != pv[pvert]:
                continue
            ok = True
            for (u, v, lab) in p_arcs:
                if u == pvert and v in mapping:
                    if (hvert, mapping[v], lab) not in h_arc_set:
                        ok = False
                        break
                elif v == pvert and u in mapping:
                    if (mapping[u], hvert, lab) not in h_arc_set:
                        ok = False
                        break
                elif u == pvert and v == pvert:
                    ok = False
                    break
            if not ok:
                continue
            mapping[pvert] = hvert
            used.add(hvert)
            backtrack(k + 1)
            del mapping[pvert]
            used.discard(hvert)

    backtrack(0)
    return results


def mni_oracle(p_vlabels, p_arcs, h_vlabels, h_arcs) -> int:
    embeddings = enumerate_embeddings(p_vlabels, p_arcs, h_vlabels, h_arcs)
    if not embeddings:
        return 0
    pv = _vlabel_map(p_vlabels)
    return min(len({emb[v] for emb in embeddings}) for v in pv)


def tiny_graphs_isomorphic(a_vlabels, a_arcs, b_vlabels, b_arcs) -> bool:
    av, bv = _vlabel_map(a_vlabels), _vlabel_map(b_vlabels)
    if len(av) != len(bv) or len(a_arcs) != len(b_arcs):
        return False
    if sorted(av.values()) != sorted(bv.values()):
        return False
    if sorted(l for (_, _, l) in a_arcs) != sorted(l for (_, _, l) in b_arcs):
        return False
    return bool(enumerate_embeddings(a_vlabels, a_arcs, b_vlabels, b_arcs))


def connected_edge_subsets(arcs, max_vertices):
    """All connected subsets of arc indices whose vertex count stays in
    bounds (breadth-first growth with a seen-set)."""
    n = len(arcs)
    incident: dict = {}
    for idx, (u, v, _) in enumerate(arcs):
        incident.setdefault(u, set()).add(idx)
        incident.setdefault(v, set()).add(idx)

    def vertices_of(subset):
        verts = set()
        for idx in subset:
            verts.add(arcs[idx][0])
            verts.add(arcs[idx][1])
        return verts

    seen: set[frozenset] = set()
    queue = [frozenset({i}) for i in range(n)]
    while queue:
        subset = queue.pop()
        if subset in seen:
            continue
        verts = vertices_of(subset)
        if len(verts) > max_vertices:
            continue
        seen.add(subset)
        for v in verts:
            for e in incident[v]:
                if e not in subset:
                    queue.append(subset | {e})
    return [s for s in seen if len(vertices_of(s)) <= max_vertices]


def _isomorphism_invariant(p_vlabels, p_arcs):
    """Equal for isomorphic graphs: the sorted tuple of each vertex's
    (label, sorted out-arc labels, sorted in-arc labels)."""
    out_labels = {v: [] for v in p_vlabels}
    in_labels = {v: [] for v in p_vlabels}
    for (u, v, label) in p_arcs:
        out_labels[u].append(label)
        in_labels[v].append(label)
    return tuple(sorted(
        (lab, tuple(sorted(out_labels[v])), tuple(sorted(in_labels[v])))
        for v, lab in p_vlabels.items()
    ))


def mine_oracle(h_vlabels, h_arcs, min_support, min_nodes, max_nodes):
    """Exhaustive mining reference: enumerate connected subgraphs, group
    them into isomorphism classes, count MNI per class, filter.

    Returns a list of (vlabels tuple, arcs tuple, support) class
    representatives with vertices renumbered 0..k-1. A subgraph is
    compared only with the representatives that share its
    ``_isomorphism_invariant``.
    """
    hv = _vlabel_map(h_vlabels)
    classes: list[tuple[tuple, tuple, int]] = []
    reps: dict[tuple, list[tuple[dict, list]]] = {}
    for subset in connected_edge_subsets(h_arcs, max_nodes):
        verts = sorted({x for idx in subset for x in (h_arcs[idx][0], h_arcs[idx][1])})
        if not (min_nodes <= len(verts) <= max_nodes):
            continue
        renum = {v: i for i, v in enumerate(verts)}
        p_vlabels = {renum[v]: hv[v] for v in verts}
        p_arcs = [
            (renum[h_arcs[idx][0]], renum[h_arcs[idx][1]], h_arcs[idx][2])
            for idx in sorted(subset)
        ]
        bucket = reps.setdefault(_isomorphism_invariant(p_vlabels, p_arcs), [])
        if any(
            tiny_graphs_isomorphic(p_vlabels, p_arcs, rv, ra) for (rv, ra) in bucket
        ):
            continue
        bucket.append((p_vlabels, p_arcs))
        support = mni_oracle(p_vlabels, p_arcs, hv, h_arcs)
        if support >= min_support:
            classes.append(
                (
                    tuple(p_vlabels[i] for i in range(len(verts))),
                    tuple(p_arcs),
                    support,
                )
            )
    return classes


def unit_mine_oracle(h_vlabels, h_arcs, min_support, min_nodes, max_nodes):
    """Whole-unit mining reference: each vertex's descendant-induced
    subgraph (the vertex, all it reaches along Contains arcs and every arc
    among them) within the size bounds, grouped into isomorphism classes
    by exhaustive matching. Returns (vlabels tuple, arcs tuple, support)
    for each class of at least ``min_support`` units, with its MNI
    support counted by exhaustive enumeration over the whole host."""
    hv = _vlabel_map(h_vlabels)
    children: dict = {}
    for (u, v, label) in h_arcs:
        if label == "Contains":
            children.setdefault(u, []).append(v)
    classes: list[list] = []
    for root in sorted(hv):
        reach = [root]
        for u in reach:
            reach.extend(c for c in children.get(u, []) if c not in reach)
        if not (min_nodes <= len(reach) <= max_nodes):
            continue
        renum = {v: i for i, v in enumerate(sorted(reach))}
        p_vlabels = {renum[v]: hv[v] for v in reach}
        p_arcs = [(renum[u], renum[v], lab) for (u, v, lab) in h_arcs if u in renum and v in renum]
        for cls in classes:
            if tiny_graphs_isomorphic(p_vlabels, p_arcs, cls[0], cls[1]):
                cls[2] += 1
                break
        else:
            classes.append([p_vlabels, p_arcs, 1])
    return [
        (tuple(vl[i] for i in range(len(vl))), tuple(arcs), mni_oracle(vl, arcs, hv, h_arcs))
        for (vl, arcs, count) in classes
        if count >= min_support
    ]


# -- ARI ---------------------------------------------------------------------


def ari_oracle(partition_a: dict, partition_b: dict) -> float:
    """Adjusted Rand index by direct pair counting."""
    assert set(partition_a) == set(partition_b)
    elements = sorted(partition_a)
    both = a_only = b_only = neither = 0
    for x, y in combinations(elements, 2):
        sa = partition_a[x] == partition_a[y]
        sb = partition_b[x] == partition_b[y]
        if sa and sb:
            both += 1
        elif sa:
            a_only += 1
        elif sb:
            b_only += 1
        else:
            neither += 1
    num = 2.0 * (both * neither - a_only * b_only)
    den = (both + a_only) * (a_only + neither) + (both + b_only) * (b_only + neither)
    if den == 0:
        return 1.0 if a_only == 0 and b_only == 0 else 0.0
    return num / den


def pairwise_f1_oracle(truth: dict, predicted: dict) -> float:
    """Pairwise F1 by direct pair counting, in the same float arithmetic as
    ``metrics.pairwise_f1``."""
    assert set(truth) == set(predicted)
    tp = fp = fn = 0
    for x, y in combinations(sorted(truth), 2):
        same_t = truth[x] == truth[y]
        same_p = predicted[x] == predicted[y]
        if same_t and same_p:
            tp += 1
        elif same_p:
            fp += 1
        elif same_t:
            fn += 1
    if tp == 0:
        return 1.0 if fp == 0 and fn == 0 else 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


# -- Signal events ----------------------------------------------------------


def events_oracle(samples, analog=False, threshold=0.5, hysteresis=0.0) -> list[int]:
    """Event times of one tag's time-sorted (timestamp, value) samples.

    A Bool signal fires where ``value > 0.5`` changes. An analog signal is
    a Schmitt trigger: at or above ``threshold + hysteresis`` it is above,
    else at or below ``threshold - hysteresis`` it is below, in between it
    keeps its state, and it fires where a known state flips. A time that
    fires more than once is kept once.
    """
    events = []
    if not analog:
        for (_, before), (t, value) in zip(samples, samples[1:]):
            if (value > 0.5) != (before > 0.5):
                events.append(t)
    else:
        hi = threshold + hysteresis
        lo = threshold - hysteresis
        state = None
        for t, value in samples:
            if value >= hi:
                if state == "below":
                    events.append(t)
                state = "above"
            elif value <= lo:
                if state == "above":
                    events.append(t)
                state = "below"
    deduped = []
    for t in events:
        if not deduped or t > deduped[-1]:
            deduped.append(t)
    return deduped


# -- Trace CSV loaders --------------------------------------------------------
# The row-by-row loaders the block-parsing loaders replaced, kept whole:
# every row goes through csv.reader and the per-row checks, and the
# columns are always sorted with a stable argsort. Of the library they
# use only the column names, the trace dataclasses and MalformedRowError.

_TIMESTAMP_LIMIT_MS = 2**62


def _oracle_read_header(fh, expected_header, optional):
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedRowError("empty file, header expected", 1) from None
    base = tuple(header[: len(expected_header)])
    extra = tuple(header[len(expected_header):])
    if base != expected_header or extra not in ((), optional):
        raise MalformedRowError(
            f"header must be {','.join(expected_header)}"
            + (f"[,{','.join(optional)}]" if optional else "")
            + f", got {','.join(header)}",
            1,
        )
    return reader, bool(extra)


def _oracle_name_order(codes, first_seen):
    names = sorted(n for n in first_seen if n is not None)
    rank = {n: r for r, n in enumerate(names)}
    remap = np.array([rank.get(n, -1) for n in first_seen], dtype=np.intp)
    return remap[np.asarray(codes, dtype=np.intp)], tuple(names)


def _oracle_time_sorted(cls, timestamps, values, *coded):
    ts = np.asarray(timestamps, dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    ranked = [_oracle_name_order(codes, first_seen) for codes, first_seen in coded]
    return cls(
        ts[order],
        np.asarray(values, dtype=float)[order],
        *(codes[order] for codes, _ in ranked),
        *(names for _, names in ranked),
    )


def io_trace_oracle(path):
    """An IO trace CSV loaded one csv.reader row at a time."""
    timestamps = array("q")
    values = array("d")
    tag_codes = array("q")
    tags = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader, _ = _oracle_read_header(fh, IO_COLUMNS, ())
        for rowno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise MalformedRowError(f"expected 3 fields, got {len(row)}", rowno)
            try:
                ts = int(row[0])
                value = float(row[2])
            except ValueError as exc:
                raise MalformedRowError(str(exc), rowno) from None
            if not math.isfinite(value):
                raise MalformedRowError("non-finite value", rowno)
            if not row[1]:
                raise MalformedRowError("empty tag name", rowno)
            if not -_TIMESTAMP_LIMIT_MS < ts < _TIMESTAMP_LIMIT_MS:
                raise MalformedRowError("timestamp magnitude must be below 2**62 ms", rowno)
            timestamps.append(ts)
            values.append(value)
            tag_codes.append(tags.setdefault(row[1], len(tags)))
    ts = np.frombuffer(timestamps, dtype=np.int64)
    codes = np.frombuffer(tag_codes, dtype=np.int64)
    return _oracle_time_sorted(IoTrace, ts, np.frombuffer(values), (codes, tags))


def rtls_trace_oracle(path):
    """An RTLS trace CSV loaded one csv.reader row at a time."""
    timestamps = array("q")
    coords = array("d")
    tracker_codes = array("q")
    label_codes = array("q")
    trackers = {}
    labels = {None: 0}
    with open(path, encoding="utf-8", newline="") as fh:
        reader, labeled = _oracle_read_header(fh, RTLS_COLUMNS, (RTLS_LABEL_COLUMN,))
        want = 6 if labeled else 5
        for rowno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != want:
                raise MalformedRowError(f"expected {want} fields, got {len(row)}", rowno)
            try:
                ts = int(row[0])
                x, y, z = float(row[2]), float(row[3]), float(row[4])
            except ValueError as exc:
                raise MalformedRowError(str(exc), rowno) from None
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise MalformedRowError("non-finite coordinate", rowno)
            if not row[1]:
                raise MalformedRowError("empty tracker id", rowno)
            if not -_TIMESTAMP_LIMIT_MS < ts < _TIMESTAMP_LIMIT_MS:
                raise MalformedRowError("timestamp magnitude must be below 2**62 ms", rowno)
            timestamps.append(ts)
            coords.extend((x, y, z))
            tracker_codes.append(trackers.setdefault(row[1], len(trackers)))
            label_codes.append(labels.setdefault(row[5] or None, len(labels)) if labeled else 0)
    return _oracle_time_sorted(
        RtlsTrace,
        np.frombuffer(timestamps, dtype=np.int64),
        np.frombuffer(coords).reshape(-1, 3),
        (tracker_codes, trackers),
        (label_codes, labels),
    )
