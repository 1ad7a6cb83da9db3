"""Dynamics analysis: from recorded traces to physical location groups.

Correlates signal-change events with material positions to estimate where
each component physically sits, then assigns components to location
groups, by default with a 1-NN/DTW classifier trained on a labeled
position data set. The emitted graph fragment uses the same stable node
ids as the PLC analysis so the two merge cleanly.

Analog signals fire an event when they cross their mid-range, with a
hysteresis band of 2 % of the observed value range. The classifier's
query series for a component is the time-ordered series of positions
matched to its events. Training segments (the 10 longest per class) are
resampled to 32 points, and queries longer than 32 points are cut down
to 32 by the same resampling.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .clustering import KMeansParams, cluster_positions
from .dtw import knn_classify, knn_train
from .graph import Edge, EdgeKind, Node, NodeKind, PropertyGraph, Provenance, node_id
from .traces import (
    EstimateStatus,
    IoSample,
    PositionEstimate,
    PositionSeries,
    RtlsSample,
    RtlsTrace,
    SignalKind,
    detect_events,
    estimate_position,
    match_events,
    split_labeled_segments,
)

logger = logging.getLogger(__name__)

ANALOG_HYSTERESIS_FRACTION = 0.02
# Every training segment is resampled to one fixed length: unnormalized
# DTW sums per-point costs, so mixed-length training series would bias
# the ranking toward short segments. Also bounds the 1-NN run time.
TRAINING_SERIES_LEN = 32
TRAINING_MAX_PER_CLASS = 10
_POSITION_LABELS = ("position.x", "position.y", "position.z")
# How many undeclared IO tags the warning names.
_UNDECLARED_SHOWN = 5


@dataclass
class DynamicsParams:
    window_ms: int = 500
    min_matches: int = 5
    band: int | None = None
    mode: str = "classify"  # "classify" | "cluster"
    # Cluster mode's k-means parameters; None is k = components // 4, seed 0.
    cluster: KMeansParams | None = None


@dataclass
class DynamicsResult:
    fragment: PropertyGraph
    estimates: dict[str, PositionEstimate]
    assignments: dict[str, str]


def _signal_kind(data_type: str) -> SignalKind:
    return SignalKind.BOOL if data_type == "Bool" else SignalKind.ANALOG


def component_event_series(io_samples: list[IoSample], tag_types: dict[str, str]):
    """Per-tag change events; analog thresholds sit mid-range with a
    hysteresis band of ANALOG_HYSTERESIS_FRACTION of the value range."""
    by_tag: dict[str, list[IoSample]] = {}
    for s in io_samples:
        by_tag.setdefault(s.tag, []).append(s)
    series = {}
    for tag in sorted(by_tag):
        samples = by_tag[tag]
        kind = _signal_kind(tag_types.get(tag, "Bool"))
        if kind is SignalKind.BOOL:
            series[tag] = detect_events(samples, kind)
        else:
            values = [s.value for s in samples]
            lo, hi = min(values), max(values)
            threshold = (lo + hi) / 2.0
            hyst = (hi - lo) * ANALOG_HYSTERESIS_FRACTION
            series[tag] = detect_events(samples, kind, threshold, hyst)
    return series


def _resample(series: PositionSeries, length: int) -> PositionSeries:
    """Nearest-index resampling to exactly ``length`` >= 2 points (n >= 1)."""
    n = len(series)
    if n == length:
        return series
    rows = np.arange(length) * (n - 1) // (length - 1)
    return PositionSeries(series.owner_tag, series.timestamps_ms[rows], series.points[rows])


def _cap(series: PositionSeries, max_len: int) -> PositionSeries:
    return _resample(series, max_len) if len(series) > max_len else series


def training_segments(labeled: RtlsTrace) -> list[tuple[PositionSeries, str]]:
    """Labeled (series, class) pairs, capped per class, uniform length."""
    per_class: dict[str, list[PositionSeries]] = {}
    for label, segment in split_labeled_segments(labeled):
        per_class.setdefault(label, []).append(segment)
    result: list[tuple[PositionSeries, str]] = []
    for label in sorted(per_class):
        segments = sorted(per_class[label], key=len, reverse=True)
        for segment in segments[:TRAINING_MAX_PER_CLASS]:
            result.append((_resample(segment, TRAINING_SERIES_LEN), label))
    return result


def analyze_dynamics(
    io_samples: list[IoSample],
    rtls: RtlsTrace | list[RtlsSample],
    labeled: RtlsTrace | list[RtlsSample],
    tag_kinds: dict[str, NodeKind],
    tag_types: dict[str, str],
    root_name: str,
    params: DynamicsParams | None = None,
) -> DynamicsResult:
    """Full dynamics pass over recorded traces.

    ``tag_kinds`` maps tag names to Sensor/Actuator (from the PLC tag
    table); ``tag_types`` maps tag names to their PLC data type. The
    returned fragment carries position labels, MaterialTracker nodes and
    PhysicalGroup membership, rooted at ``SystemRoot:<root_name>``.
    The two RTLS traces may also be given as lists of samples. An empty
    RTLS trace, IO tags the PLC does not declare and cluster mode are
    logged as warnings.
    """
    params = params or DynamicsParams()
    if isinstance(rtls, list):
        rtls = RtlsTrace.from_samples(rtls)
    if isinstance(labeled, list):
        labeled = RtlsTrace.from_samples(labeled)
    if not len(rtls):
        logger.warning("RTLS trace is empty: no component gets a position")
    events = component_event_series(io_samples, tag_types)
    undeclared = sorted(set(events) - set(tag_kinds))
    if undeclared:
        logger.warning(
            "%d IO tag(s) not declared by the PLC are ignored: %s%s",
            len(undeclared),
            ", ".join(undeclared[:_UNDECLARED_SHOWN]),
            ", ..." if len(undeclared) > _UNDECLARED_SHOWN else "",
        )

    matched: dict[str, PositionSeries] = {}
    estimates: dict[str, PositionEstimate] = {}
    for tag in sorted(tag_kinds):
        ev = events.get(tag)
        if ev is None or not ev.events:
            series = PositionSeries(owner_tag=tag)
        else:
            series = match_events(ev, rtls, params.window_ms)
        matched[tag] = series
        estimates[tag] = estimate_position(series, params.min_matches)

    assignments: dict[str, str] = {}
    if params.mode == "cluster":
        logger.warning(
            "clustering mode: positions lie along continuous trajectories, "
            "the split may differ from the true location groups"
        )
        method = params.cluster or KMeansParams(k=max(1, len(estimates) // 4), seed=0)
        assignments = cluster_positions(list(estimates.values()), method).assignments
    else:
        training = training_segments(labeled)
        if not training:
            logger.warning("no labeled training segments; components stay unassigned")
        else:
            model = knn_train(training, params.band)
            for tag in sorted(tag_kinds):
                if estimates[tag].status is EstimateStatus.KNOWN:
                    query = _cap(matched[tag], TRAINING_SERIES_LEN)
                    assignments[tag] = knn_classify(model, query)

    fragment = build_physical_groups(assignments, estimates, tag_kinds, root_name)
    _add_trackers(fragment, rtls, root_name)
    return DynamicsResult(fragment, estimates, assignments)


def build_physical_groups(
    assignments: dict[str, str],
    estimates: dict[str, PositionEstimate],
    tag_kinds: dict[str, NodeKind],
    root_name: str,
) -> PropertyGraph:
    """Graph fragment: PhysicalGroup nodes, membership edges, positions."""
    g = PropertyGraph()
    root_id = node_id(NodeKind.SYSTEM_ROOT, root_name)
    g.add_node(Node(root_id, NodeKind.SYSTEM_ROOT, root_name, {}, Provenance.DYNAMICS_ANALYSIS))

    group_ids: dict[str, str] = {}
    for label in sorted(set(assignments.values())):
        gid = node_id(NodeKind.PHYSICAL_GROUP, label)
        g.add_node(
            Node(gid, NodeKind.PHYSICAL_GROUP, label, {"domain": "mechanic"}, Provenance.DYNAMICS_ANALYSIS)
        )
        g.add_edge(Edge(EdgeKind.CONTAINS, root_id, gid))
        group_ids[label] = gid

    for tag in sorted(tag_kinds):
        kind = tag_kinds[tag]
        est = estimates.get(tag)
        label_map = {}
        if est is not None and est.status is EstimateStatus.KNOWN and est.mean is not None:
            label_map = {**dict(zip(_POSITION_LABELS, est.mean)), "matchCount": est.match_count}
        if not label_map and tag not in assignments:
            continue
        tid = node_id(kind, tag)
        g.add_node(Node(tid, kind, tag, label_map, Provenance.DYNAMICS_ANALYSIS))
        if tag in assignments:
            g.add_edge(Edge(EdgeKind.MEMBER_OF_PHYSICAL, tid, group_ids[assignments[tag]]))
    return g


def stored_estimates(graph: PropertyGraph) -> list[PositionEstimate]:
    """The Known position estimates that ``build_physical_groups`` stored
    on a graph's Sensor and Actuator nodes, in node id order; ``load_graph``
    has checked the labels' types."""
    return [
        PositionEstimate(
            node.name,
            tuple(node.labels[key] for key in _POSITION_LABELS),
            node.labels.get("matchCount", 0),
            EstimateStatus.KNOWN,
        )
        for node in graph.query(kinds={NodeKind.SENSOR, NodeKind.ACTUATOR})
        if all(key in node.labels for key in _POSITION_LABELS)
    ]


def _add_trackers(g: PropertyGraph, rtls: RtlsTrace, root_name: str) -> None:
    """One MaterialTracker node per tracker, at its last recorded position."""
    root_id = node_id(NodeKind.SYSTEM_ROOT, root_name)
    # The first occurrence in the reversed trace is the last one.
    codes, first_reversed = np.unique(rtls.tracker_codes[::-1], return_index=True)
    last = len(rtls) - 1 - first_reversed
    for code, row in zip(codes.tolist(), last.tolist()):
        tracker = rtls.tracker_names[code]
        position = dict(zip(_POSITION_LABELS, rtls.points[row].tolist()))
        tid = node_id(NodeKind.MATERIAL_TRACKER, tracker)
        g.add_node(
            Node(
                tid,
                NodeKind.MATERIAL_TRACKER,
                tracker,
                {"domain": "mechanic", **position},
                Provenance.DYNAMICS_ANALYSIS,
            )
        )
        g.add_edge(Edge(EdgeKind.CONTAINS, root_id, tid))
