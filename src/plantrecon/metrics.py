"""Evaluation metrics: partition agreement, template recovery, reporting.

The original evaluation of this approach measured expert time; that is
not reproducible at a desk, so the generator's ground truth is scored
instead: adjusted Rand index and pairwise F1 for the functional grouping,
per-component accuracy for the physical assignment, and recovery and
precision of the expected repeated structures.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass

from .errors import DataError
from .graph import EdgeKind, NodeKind, PropertyGraph
from .mining import Pattern, patterns_isomorphic
from .synth import GroundTruth

logger = logging.getLogger(__name__)


class UniverseMismatchError(DataError):
    pass


def _pair_counts(a: dict[str, str], b: dict[str, str]) -> tuple[int, int, int]:
    """Element pairs grouped together in both partitions, in ``a``, and in ``b``."""
    if set(a) != set(b):
        only_a = sorted(set(a) - set(b))[:5]
        only_b = sorted(set(b) - set(a))[:5]
        raise UniverseMismatchError(
            f"partitions cover different elements (e.g. {only_a} vs {only_b})"
        )
    cells = Counter((group, b[element]) for element, group in a.items())
    return tuple(
        sum(math.comb(c, 2) for c in sizes.values())
        for sizes in (cells, Counter(a.values()), Counter(b.values()))
    )


def ari(partition_a: dict[str, str], partition_b: dict[str, str]) -> float:
    """Adjusted Rand index via the standard contingency formula."""
    sum_cells, sum_a, sum_b = _pair_counts(partition_a, partition_b)
    pairs = math.comb(len(partition_a), 2)
    expected = sum_a * sum_b / pairs if pairs else 0.0
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        # Degenerate partitions (all-singleton or single-cluster on both
        # sides, or no elements): agreement is total iff the tables coincide.
        return 1.0 if sum_cells == maximum else 0.0
    return (sum_cells - expected) / (maximum - expected)


def pairwise_f1(truth: dict[str, str], predicted: dict[str, str]) -> float:
    """F1 over same-group element pairs (truth = recall side)."""
    tp, same_t, same_p = _pair_counts(truth, predicted)
    fp, fn = same_p - tp, same_t - tp
    if tp == 0:
        return 1.0 if fp == 0 and fn == 0 else 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def _as_pattern(structure: dict) -> Pattern:
    return Pattern.from_structure(structure, int(structure.get("support", 0)))


def _same_template(a: Pattern, b: Pattern) -> bool:
    return a.support == b.support and patterns_isomorphic(a, b)


def template_recovery(expected: list[dict], mined: list[Pattern]) -> float:
    """Fraction of expected templates found among the mined maximal
    patterns with matching structure and support."""
    if not expected:
        return 1.0
    wanted = [_as_pattern(exp) for exp in expected]
    return sum(any(_same_template(w, m) for m in mined) for w in wanted) / len(expected)


def template_precision(expected: list[dict], mined: list[Pattern]) -> float | None:
    """Fraction of the mined templates that match an expected template in
    structure and support; None when no template was mined."""
    if not mined:
        return None
    wanted = [_as_pattern(exp) for exp in expected]
    return sum(any(_same_template(w, m) for w in wanted) for m in mined) / len(mined)


@dataclass
class MetricsReport:
    ari: float
    pairwise_f1: float
    template_recovery: float
    # Set when the 1-NN classifier assigned the physical groups.
    classification_accuracy: float | None = None
    # Set when k-means grouped the positions.
    clustering_ari: float | None = None
    # Set when templates were mined.
    template_precision: float | None = None

    def to_text(self) -> str:
        """Deterministic ``metrics.report`` body; a metric that is not set
        has no line. Wall-clock times go to ``timings.txt`` only."""
        metrics = {
            "ari": self.ari,
            "clustering_ari": self.clustering_ari,
            "classification_accuracy": self.classification_accuracy,
            "pairwise_f1": self.pairwise_f1,
            "template_precision": self.template_precision,
            "template_recovery": self.template_recovery,
        }
        return "".join(f"{k} = {v!r}\n" for k, v in metrics.items() if v is not None)


def functional_partition_of(graph: PropertyGraph) -> dict[str, str]:
    """Tag -> containing group id, for every Sensor/Actuator node."""
    out = {}
    for node in graph.query(kinds={NodeKind.SENSOR, NodeKind.ACTUATOR}):
        parent = graph.contains_parent(node.id)
        out[node.name] = parent if parent is not None else ""
    return out


def physical_assignments_of(graph: PropertyGraph) -> dict[str, str]:
    """Tag -> physical group label, from MemberOfPhysical edges."""
    out = {}
    for node in graph.query(kinds={NodeKind.SENSOR, NodeKind.ACTUATOR}):
        edges = graph.out_edges(node.id, EdgeKind.MEMBER_OF_PHYSICAL)
        if edges:
            out[node.name] = graph.node(edges[0].target).name
    return out


def evaluate(
    graph: PropertyGraph,
    templates: list[Pattern],
    ground_truth: GroundTruth,
    clustering_assignments: dict[str, str] | None = None,
    classified: bool = True,
) -> MetricsReport:
    """Score a finished pipeline run against the generator's ground truth.

    ``classified`` says that the 1-NN classifier assigned the graph's
    physical groups; only then is classification accuracy scored, and
    only when it assigned at least one component.
    """
    truth_functional = ground_truth.functional_partition
    mined_functional = functional_partition_of(graph)
    missing = sorted(set(truth_functional) - set(mined_functional))
    if missing:
        raise UniverseMismatchError(f"graph lacks field devices {missing[:5]}")
    mined_functional = {t: mined_functional[t] for t in truth_functional}

    truth_physical = ground_truth.physical_partition
    accuracy = None
    if classified:
        assignments = physical_assignments_of(graph)
        if assignments:
            correct = sum(1 for t, label in assignments.items() if truth_physical.get(t) == label)
            accuracy = correct / len(assignments)
        else:
            logger.warning("no component has a physical group: classification_accuracy not scored")

    clustering_ari = None
    if clustering_assignments:
        subset = {t: truth_physical[t] for t in clustering_assignments if t in truth_physical}
        clustering_ari = ari(subset, {t: clustering_assignments[t] for t in subset})

    return MetricsReport(
        ari=ari(truth_functional, mined_functional),
        pairwise_f1=pairwise_f1(truth_functional, mined_functional),
        classification_accuracy=accuracy,
        template_recovery=template_recovery(ground_truth.templates, templates),
        clustering_ari=clustering_ari,
        template_precision=template_precision(ground_truth.templates, templates),
    )
