"""Dynamic time warping distance and 1-nearest-neighbor classification.

The distance is the classic full-table dynamic program: per-point
Euclidean local cost, symmetric unit steps (match / insert / delete) and
no path-length normalization — rankings only need consistent scaling, and
leaving the raw sum makes the numbers reproducible. An optional
Sakoe-Chiba band restricts alignment to ``|i - j| <= band``; a negative
band is refused.

One recurrence, ``_wavefront``, fills the table one anti-diagonal at a
time, whose cells depend only on the two previous anti-diagonals, for
many series at once on numpy's fast axis. It has two entry points:
``dtw_distance`` for one pair, whose band must reach the end cell, and
``knn_distances`` (behind ``knn_classify``) for one query against every
training series of one length, with the band widened per pair to the
length difference. The tests check it against an independent scalar DP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .traces import PositionSeries


class SeriesError(DataError):
    pass


class EmptySeriesError(SeriesError):
    pass


class BandTooNarrowError(SeriesError):
    pass


class EmptyTrainingSetError(SeriesError):
    pass


def _as_matrix(series) -> np.ndarray:
    data = series.points if isinstance(series, PositionSeries) else np.asarray(series, dtype=float)
    if data.size == 0:
        raise EmptySeriesError("series must be non-empty")
    if data.ndim == 1:
        data = data.reshape(-1, 1)
    return data


def _check_band(band: int | None) -> None:
    if band is not None and band < 0:
        raise BandTooNarrowError("band must be non-negative")


def dtw_distance(a, b, band: int | None = None) -> float:
    """DTW distance between two series of points (1-D values or vectors),
    from the kernel ``knn_distances`` runs, on a one-series cost tensor.

    ``band``, when given, must be non-negative and at least
    ``|len(a) - len(b)|``, or the end cell is unreachable.
    """
    am = _as_matrix(a)
    bm = _as_matrix(b)
    if am.shape[1] != bm.shape[1]:
        raise SeriesError(f"dimension mismatch: {am.shape[1]} vs {bm.shape[1]}")
    n, m = am.shape[0], bm.shape[0]
    _check_band(band)
    if band is not None and band < abs(n - m):
        raise BandTooNarrowError(f"band {band} narrower than length difference {abs(n - m)}")
    cost = _local_cost(am.T[:, :, None, None], bm.T[:, None, :, None])
    return float(_wavefront(cost, band)[0])


def _local_cost(a, b) -> np.ndarray:
    """Euclidean distance of every point pair.

    ``a`` and ``b`` give one broadcastable coordinate array per point
    dimension; the squared differences are summed left to right.
    """
    total = None
    for ak, bk in zip(a, b):
        d = ak - bk
        total = d * d if total is None else total + d * d
    return np.sqrt(total)


def _wavefront(cost: np.ndarray, band: int | None) -> np.ndarray:
    """DTW distances from a local-cost tensor of shape (n, m, series).

    Anti-diagonal ``k`` holds the cells ``(i, k - i)``; its arrays are
    indexed by ``i``, so cell ``(i, j)`` finds its diagonal, upper and
    left neighbours at ``i - 1`` on diagonal ``k - 2`` and at ``i - 1``
    and ``i`` on diagonal ``k - 1``. Cells off the table or outside the
    band stay infinite.
    """
    n, m, count = cost.shape
    prev2 = np.full((n + 1, count), math.inf)  # diagonal k - 2
    prev2[0] = 0.0
    prev1 = np.full((n + 1, count), math.inf)  # diagonal k - 1
    for k in range(2, n + m + 1):
        lo, hi = max(1, k - m), min(n, k - 1)
        if band is not None:
            # |i - j| = |2i - k| <= band
            lo, hi = max(lo, (k - band + 1) // 2), min(hi, (k + band) // 2)
        cur = np.full((n + 1, count), math.inf)
        if lo <= hi:
            i = np.arange(lo, hi + 1)
            best = np.minimum(prev2[lo - 1:hi], prev1[lo - 1:hi])
            np.minimum(best, prev1[lo:hi + 1], out=best)
            cur[lo:hi + 1] = cost[i - 1, k - i - 1] + best
        prev2, prev1 = prev1, cur
    return prev1[n]


@dataclass(frozen=True)
class _LengthGroup:
    """Training series of one length: ``points`` is (dims, length, series)
    and ``rows`` their positions in ``NnModel.training``."""

    points: np.ndarray
    rows: np.ndarray


@dataclass
class NnModel:
    """1-NN classifier state: labeled training series plus DTW settings.

    ``groups`` stacks the training series by length for ``knn_classify``;
    it is derived from ``training``.
    """

    training: list[tuple[PositionSeries, str]]
    band: int | None = None
    groups: list[_LengthGroup] = field(init=False, repr=False, compare=False)
    dims: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        matrices = [_as_matrix(series) for series, _ in self.training]
        dims = {mat.shape[1] for mat in matrices}
        if len(dims) > 1:
            raise SeriesError(f"training series differ in dimension: {sorted(dims)}")
        self.dims = dims.pop() if dims else 0
        by_length: dict[int, list[int]] = {}
        for row, mat in enumerate(matrices):
            by_length.setdefault(mat.shape[0], []).append(row)
        self.groups = [
            _LengthGroup(np.stack([matrices[r].T for r in rows], axis=2), np.array(rows))
            for _, rows in sorted(by_length.items())
        ]


def knn_train(labeled_segments: list[tuple[PositionSeries, str]], band: int | None = None) -> NnModel:
    if not labeled_segments:
        raise EmptyTrainingSetError("at least one labeled training series required")
    _check_band(band)
    for series, _ in labeled_segments:
        if len(series) == 0:
            raise EmptySeriesError("training series must be non-empty")
    return NnModel(list(labeled_segments), band)


def knn_distances(model: NnModel, query) -> list[float]:
    """DTW distance from ``query`` to each training series, in training
    order; each equals ``dtw_distance`` of the pair with the band widened
    as in ``knn_classify``."""
    if len(query) == 0:
        raise EmptySeriesError("query series must be non-empty")
    qm = _as_matrix(query)
    if qm.shape[1] != model.dims:
        raise SeriesError(f"dimension mismatch: {qm.shape[1]} vs {model.dims}")
    n = qm.shape[0]
    distances = np.empty(len(model.training))
    for group in model.groups:
        m = group.points.shape[1]
        band = None if model.band is None else max(model.band, abs(m - n))
        cost = _local_cost(qm.T[:, :, None, None], group.points[:, None, :, :])
        distances[group.rows] = _wavefront(cost, band)
    return distances.tolist()


def knn_classify(model: NnModel, query: PositionSeries) -> str:
    """Label of the nearest training series; distance ties pick the
    lexicographically smallest label.

    A configured band widens per pair to the length difference when
    needed, keeping mixed-length comparisons legal. Within one length
    group that gives one band for all its series.
    """
    best_label: str | None = None
    best_dist = math.inf
    for d, (_, label) in zip(knn_distances(model, query), model.training):
        if d < best_dist or (d == best_dist and (best_label is None or label < best_label)):
            best_dist = d
            best_label = label
    assert best_label is not None
    return best_label
