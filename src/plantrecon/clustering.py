"""Seeded clustering of estimated component positions.

Clustering is the opt-in alternative to 1-NN classification: it needs no
labeled training data, but positions sampled along continuous material
trajectories have no clean spatial gaps, so the split can differ from the
true location groups and the accuracy is generally lower. Cluster-mode
dynamics analysis logs a warning to that effect.

K-means is implemented here rather than delegated so that the results
are bit-reproducible across runs and thread counts for a fixed seed. It
uses k-means++ seeding (Arthur & Vassilvitskii 2007) and keeps the best
of 10 restarts; Lloyd iterations stop at 300 or at a centroid shift
below 1e-9 m. The seeding draws only ``random.Random(seed).random()``,
whose stream Python pins across versions, as ``synth`` does. NumPy pins
its bit generators' streams but not ``Generator.integers`` or
``choice``, and importing ``numpy.random`` loads every bit generator and
the legacy ``RandomState``, which no command needs otherwise.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .traces import EstimateStatus, PositionEstimate

logger = logging.getLogger(__name__)


class ClusteringError(DataError):
    pass


class InsufficientDataError(ClusteringError):
    pass


KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-9
KMEANS_RESTARTS = 10


@dataclass(frozen=True)
class KMeansParams:
    k: int
    seed: int = 0


@dataclass
class ClusterResult:
    """Partition over tags with Known estimates; Unknowns are left out."""

    assignments: dict[str, str]

    def partition(self) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {}
        for tag, label in self.assignments.items():
            out.setdefault(label, set()).add(tag)
        return out


def _kmeans_once(points: np.ndarray, k: int, rng: random.Random) -> tuple[np.ndarray, float]:
    n = len(points)
    # k-means++ seeding: each next center is drawn with probability
    # proportional to its squared distance from the nearest center so far.
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.random() * n)]
    dist2 = ((points - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        cdf = dist2.cumsum()
        if cdf[-1] == 0.0:
            centers[i:] = points[0]
            break
        cdf /= cdf[-1]
        # cdf[-1] == 1.0 > u, and side="right" skips zero-weight points,
        # so no point becomes a center twice.
        centers[i] = points[cdf.searchsorted(rng.random(), side="right")]
        dist2 = np.minimum(dist2, ((points - centers[i]) ** 2).sum(axis=1))
    labels = np.zeros(n, dtype=int)
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        new_centers = centers.copy()
        for c in range(k):
            members = points[labels == c]
            if len(members):
                new_centers[c] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster on the point farthest from its center.
                far = d2.min(axis=1).argmax()
                new_centers[c] = points[far]
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < KMEANS_TOL:
            break
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    return labels, inertia


def kmeans(points: np.ndarray, params: KMeansParams) -> np.ndarray:
    """Deterministic seeded k-means (k-means++, best of KMEANS_RESTARTS runs);
    returns a cluster index per point."""
    k = min(params.k, len(points))
    rng = random.Random(params.seed)
    best_labels: np.ndarray | None = None
    best_inertia = math.inf
    for _ in range(KMEANS_RESTARTS):
        labels, inertia = _kmeans_once(points, k, rng)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    assert best_labels is not None
    return best_labels


def cluster_positions(
    estimates: list[PositionEstimate],
    method: KMeansParams,
) -> ClusterResult:
    """Partition the tags with Known position estimates by k-means.

    Cluster names are ``C0``, ``C1``, ... ordered by centroid so the
    naming is stable. With fewer Known estimates than ``k``, k-means
    makes one cluster per estimate at most, and a warning says so.
    """
    known = sorted(
        (e for e in estimates if e.status is EstimateStatus.KNOWN),
        key=lambda e: e.owner_tag,
    )
    if not known:
        raise InsufficientDataError("no Known position estimates to cluster")
    points = np.array([e.mean for e in known], dtype=float)
    # k-means sums squared distances over all points; this bounds those sums.
    with np.errstate(over="ignore"):
        spread2 = len(points) * ((2 * np.abs(points).max(axis=0)) ** 2).sum()
    if not np.isfinite(spread2):
        raise ClusteringError(
            "position coordinates too large to cluster: squared distances overflow"
        )
    if method.k > len(points):
        logger.warning(
            "kmeans_k = %d exceeds the %d Known position estimates; clustering into %d",
            method.k, len(points), len(points),
        )
    raw = kmeans(points, method)
    # Stable naming: order clusters by their centroid tuple.
    centroids = sorted((tuple(points[raw == c].mean(axis=0)), c) for c in set(raw.tolist()))
    order = {c: f"C{rank}" for rank, (_, c) in enumerate(centroids)}
    assignments = {est.owner_tag: order[int(c)] for est, c in zip(known, raw)}
    return ClusterResult(assignments)
