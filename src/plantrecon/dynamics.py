"""Dynamics analysis: from recorded traces to physical location groups.

Correlates signal-change events with material positions to estimate where
each component physically sits, then assigns components to location
groups: with a 1-NN/DTW classifier trained on a labeled position data
set, or, when ``DynamicsParams.cluster`` holds k-means parameters, by
clustering the mean positions. ``analyze_dynamics`` takes the training
segments, not the labeled trace, so a caller can drop that trace before
it loads the operational one. The emitted graph fragment uses the same
stable node ids as the PLC analysis so the two merge cleanly.

Analog signals fire an event when they cross their mid-range, with a
hysteresis band of 2 % of the observed value range. The classifier's
query for a component is the (n, 3) array of the positions matched to
its events, in time order, keyed by its tag. Training segments (the 10
longest per class) are resampled to 32 points, and queries longer than
32 points are cut down to 32 by the same resampling. So every training
series has 32 points, the one length the classifier's training stack
takes.
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
    IoTrace,
    PositionEstimate,
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
# How many tags a warning about undeclared or unmatched tags names.
_TAGS_SHOWN = 5


@dataclass
class DynamicsParams:
    window_ms: int = 500
    min_matches: int = 5
    # Cluster mode's k-means parameters; None is classify mode.
    cluster: KMeansParams | None = None


@dataclass
class DynamicsResult:
    fragment: PropertyGraph
    estimates: dict[str, PositionEstimate]
    assignments: dict[str, str]


def component_event_series(io: IoTrace, tag_types: dict[str, str]) -> dict[str, np.ndarray]:
    """Per-tag change-event times; analog thresholds sit mid-range with a
    hysteresis band of ANALOG_HYSTERESIS_FRACTION of the value range."""
    events = {}
    for code, tag in enumerate(io.tag_names):
        rows = io.tag_codes == code
        times, values = io.timestamps_ms[rows], io.values[rows]
        if tag_types.get(tag, "Bool") == "Bool":
            events[tag] = detect_events(times, values)
        else:
            lo, hi = float(values.min()), float(values.max())
            hyst = (hi - lo) * ANALOG_HYSTERESIS_FRACTION
            events[tag] = detect_events(times, values, SignalKind.ANALOG, (lo + hi) / 2.0, hyst)
    return events


def _resample(points: np.ndarray, length: int) -> np.ndarray:
    """Nearest-index resampling to exactly ``length`` >= 2 points (n >= 1)."""
    n = len(points)
    if n == length:
        return points
    return points[np.arange(length) * (n - 1) // (length - 1)]


def _cap(points: np.ndarray, max_len: int) -> np.ndarray:
    return _resample(points, max_len) if len(points) > max_len else points


def training_segments(labeled: RtlsTrace) -> list[tuple[np.ndarray, str]]:
    """Labeled (series, class) pairs, capped per class, uniform length."""
    per_class: dict[str, list[np.ndarray]] = {}
    for label, segment in split_labeled_segments(labeled):
        per_class.setdefault(label, []).append(segment)
    result: list[tuple[np.ndarray, str]] = []
    for label in sorted(per_class):
        segments = sorted(per_class[label], key=len, reverse=True)
        for segment in segments[:TRAINING_MAX_PER_CLASS]:
            result.append((_resample(segment, TRAINING_SERIES_LEN), label))
    return result


def _first_tags(tags: list[str]) -> str:
    return ", ".join(tags[:_TAGS_SHOWN]) + (", ..." if len(tags) > _TAGS_SHOWN else "")


def analyze_dynamics(
    io: IoTrace,
    rtls: RtlsTrace,
    training: list[tuple[np.ndarray, str]],
    tag_kinds: dict[str, NodeKind],
    tag_types: dict[str, str],
    root_name: str,
    params: DynamicsParams | None = None,
) -> DynamicsResult:
    """Full dynamics pass over recorded traces.

    ``training`` holds the classifier's labeled series, as
    ``training_segments`` cuts them from a labeled RTLS trace; cluster
    mode, chosen by setting ``params.cluster``, does not read it.
    ``tag_kinds`` maps tag names to Sensor/Actuator (from the PLC tag
    table); ``tag_types`` maps tag names to their PLC data type. The
    returned fragment carries position labels, MaterialTracker nodes and
    PhysicalGroup membership, rooted at ``SystemRoot:<root_name>``. An
    empty RTLS trace, IO tags the PLC does not declare, declared tags
    whose events match fewer than ``min_matches`` positions, and cluster
    mode are logged as warnings.
    """
    params = params or DynamicsParams()
    if not len(rtls):
        logger.warning("RTLS trace is empty: no component gets a position")
    events = component_event_series(io, tag_types)
    undeclared = sorted(set(events) - set(tag_kinds))
    if undeclared:
        logger.warning(
            "%d IO tag(s) not declared by the PLC are ignored: %s",
            len(undeclared),
            _first_tags(undeclared),
        )

    matched: dict[str, np.ndarray] = {}
    estimates: dict[str, PositionEstimate] = {}
    for tag in sorted(tag_kinds):
        matched[tag] = match_events(events.get(tag, ()), rtls, params.window_ms)
        estimates[tag] = estimate_position(matched[tag], params.min_matches)
    unmatched = [
        tag for tag, est in estimates.items()
        if est.status is EstimateStatus.UNKNOWN and len(events.get(tag, ()))
    ]
    # An empty RTLS trace, warned about above, leaves every tag unmatched.
    if unmatched and len(rtls):
        logger.warning(
            "%d declared tag(s) with events matched fewer than %d positions and stay "
            "Unknown: %s",
            len(unmatched),
            params.min_matches,
            _first_tags(unmatched),
        )

    assignments: dict[str, str] = {}
    if params.cluster is not None:
        logger.warning(
            "clustering mode: positions lie along continuous trajectories, "
            "the split may differ from the true location groups"
        )
        assignments = cluster_positions(estimates, params.cluster)
    else:
        if not training:
            logger.warning("no labeled training segments; components stay unassigned")
        else:
            model = knn_train(training)
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
        if est is not None and est.mean is not None:
            label_map = {**dict(zip(_POSITION_LABELS, est.mean)), "matchCount": est.match_count}
        if not label_map and tag not in assignments:
            continue
        tid = node_id(kind, tag)
        g.add_node(Node(tid, kind, tag, label_map, Provenance.DYNAMICS_ANALYSIS))
        if tag in assignments:
            g.add_edge(Edge(EdgeKind.MEMBER_OF_PHYSICAL, tid, group_ids[assignments[tag]]))
    return g


def stored_estimates(graph: PropertyGraph) -> dict[str, PositionEstimate]:
    """Tag -> the Known position estimate that ``build_physical_groups``
    stored on a graph's Sensor or Actuator node, in node id order;
    ``load_graph`` has checked the labels' types."""
    return {
        node.name: PositionEstimate(
            tuple(node.labels[key] for key in _POSITION_LABELS),
            node.labels.get("matchCount", 0),
        )
        for node in graph.query(kinds={NodeKind.SENSOR, NodeKind.ACTUATOR})
        if all(key in node.labels for key in _POSITION_LABELS)
    }


def _add_trackers(g: PropertyGraph, rtls: RtlsTrace, root_name: str) -> None:
    """One MaterialTracker node per tracker, at its last recorded position."""
    root_id = node_id(NodeKind.SYSTEM_ROOT, root_name)
    # Every tracker name has a sample; the first match in the reversed
    # codes is its last one. One boolean column at a time, no sort.
    reversed_codes = rtls.tracker_codes[::-1]
    for code, tracker in enumerate(rtls.tracker_names):
        row = len(rtls) - 1 - int(np.argmax(reversed_codes == code))
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
