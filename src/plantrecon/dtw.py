"""Dynamic time warping distance and 1-nearest-neighbor classification.

The distance is the classic full-table dynamic program: per-point
Euclidean local cost, symmetric unit steps (match / insert / delete) and
no path-length normalization — rankings only need consistent scaling, and
leaving the raw sum makes the numbers reproducible. Every cell of the
table is filled, with no window on ``|i - j|``: ``dynamics`` resamples
every training series to 32 points and caps every query at 32, so no
table exceeds 32 x 32 cells.

One recurrence, ``_wavefront``, fills the table one anti-diagonal at a
time, whose cells depend only on the two previous anti-diagonals, for
many series at once on numpy's fast axis. It computes each diagonal's
local costs as it goes, from a slice of the query and a slice of the
training series, stored in reversed point order so that the slice runs
forward; no (n, m, series) cost tensor is built. Its one entry is
``knn_distances`` (behind ``knn_classify``): one query against the one
(dims, length, series) stack of all training series, which therefore
share one length and one dimension. Series must be non-empty and finite.
The tests check it against an independent scalar DP.
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


class EmptyTrainingSetError(SeriesError):
    pass


def _as_matrix(series) -> np.ndarray:
    data = series.points if isinstance(series, PositionSeries) else np.asarray(series, dtype=float)
    if data.size == 0:
        raise EmptySeriesError("series must be non-empty")
    if not np.isfinite(data).all():
        raise SeriesError("series must hold finite values only")
    if data.ndim == 1:
        data = data.reshape(-1, 1)
    return data


def _local_cost(a, b) -> np.ndarray:
    """Euclidean distance of the point pairs ``a`` and ``b`` broadcast to.

    ``a`` and ``b`` give one broadcastable coordinate array per point
    dimension; the squared differences are summed left to right, in the
    array the first difference made.
    """
    total = None
    for ak, bk in zip(a, b):
        d = ak - bk
        d *= d
        total = d if total is None else np.add(total, d, out=total)
    return np.sqrt(total, out=total)


def _wavefront(query: np.ndarray, training: np.ndarray) -> np.ndarray:
    """DTW distances from ``query``, of shape (dims, n), to each series of
    ``training``, of shape (dims, m, series) and in reversed point order.

    Anti-diagonal ``k`` holds the cells ``(i, k - i)``; its arrays are
    indexed by ``i``, so cell ``(i, j)`` finds its diagonal, upper and
    left neighbours at ``i - 1`` on diagonal ``k - 2`` and at ``i - 1``
    and ``i`` on diagonal ``k - 1``. Cells off the table stay infinite;
    every diagonal from 2 to ``n + m`` holds at least one cell of it.
    Each diagonal computes its own local costs: cell ``(i, j)`` pairs
    query point ``i - 1`` with training point ``j - 1``, which is point
    ``m - k + i`` in reversed order, so the cells ``lo..hi`` take one
    forward slice of each.
    """
    n = query.shape[1]
    m, count = training.shape[1:]
    query = query[:, :, None]
    prev2 = np.full((n + 1, count), math.inf)  # diagonal k - 2
    prev2[0] = 0.0
    prev1 = np.full((n + 1, count), math.inf)  # diagonal k - 1
    for k in range(2, n + m + 1):
        lo, hi = max(1, k - m), min(n, k - 1)
        cur = np.full((n + 1, count), math.inf)
        best = np.minimum(prev2[lo - 1:hi], prev1[lo - 1:hi])
        np.minimum(best, prev1[lo:hi + 1], out=best)
        cost = _local_cost(query[:, lo - 1:hi], training[:, m - k + lo:m - k + hi + 1])
        np.add(cost, best, out=cur[lo:hi + 1])
        prev2, prev1 = prev1, cur
    return prev1[n]


@dataclass
class NnModel:
    """1-NN classifier state: the labeled training series.

    ``stack`` holds them for ``knn_distances`` as one (dims, length,
    series) array, each series in reversed point order for
    ``_wavefront``; it is derived from ``training``.
    """

    training: list[tuple[PositionSeries, str]]
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        matrices = [_as_matrix(series) for series, _ in self.training]
        shapes = {mat.shape for mat in matrices}
        if len(shapes) > 1:
            raise SeriesError(f"training series differ in (length, dimension): {sorted(shapes)}")
        self.stack = np.stack([mat[::-1].T for mat in matrices], axis=2)


def knn_train(labeled_segments: list[tuple[PositionSeries, str]]) -> NnModel:
    if not labeled_segments:
        raise EmptyTrainingSetError("at least one labeled training series required")
    for series, _ in labeled_segments:
        if len(series) == 0:
            raise EmptySeriesError("training series must be non-empty")
    return NnModel(list(labeled_segments))


def knn_distances(model: NnModel, query) -> list[float]:
    """DTW distance from ``query``, a series of points (1-D values or
    vectors), to each training series, in training order."""
    if len(query) == 0:
        raise EmptySeriesError("query series must be non-empty")
    qm = _as_matrix(query)
    dims = model.stack.shape[0]
    if qm.shape[1] != dims:
        raise SeriesError(f"dimension mismatch: {qm.shape[1]} vs {dims}")
    return _wavefront(qm.T, model.stack).tolist()


def knn_classify(model: NnModel, query: PositionSeries) -> str:
    """Label of the training series nearest ``query`` by the distances of
    ``knn_distances``; distance ties pick the lexicographically smallest
    label."""
    labels = (label for _, label in model.training)
    return min(zip(knn_distances(model, query), labels))[1]
