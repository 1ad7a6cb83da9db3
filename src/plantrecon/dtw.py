"""Dynamic time warping distance and 1-nearest-neighbor classification.

The distance is the classic full-table dynamic program: per-point
Euclidean local cost, symmetric unit steps (match / insert / delete) and
no path-length normalization — rankings only need consistent scaling, and
leaving the raw sum makes the numbers reproducible. There is no window on
``|i - j|``: ``dynamics`` resamples every training series to 32 points
and caps every query at 32, so no table exceeds 32 x 32 cells.

One recurrence, ``_wavefront``, fills the table one anti-diagonal at a
time, whose cells depend only on the two previous anti-diagonals, for
many series at once on numpy's fast axis. It builds the (n, m, series)
local costs once per call and reads each anti-diagonal's costs as a
diagonal view of them, so a diagonal takes three ufunc calls: two minima
and one sum. ``knn_distances`` is its full-distance entry: one query
against the one (dims, length, series) stack of all training series,
which therefore share one length and one dimension. Series must be
non-empty and finite. The tests check it against an independent scalar
DP.

``knn_classify`` runs the recurrence only on the series that can still
be nearest, with the standard bounds of exact 1-NN search under DTW
(Keogh & Ratanamahatana 2005; Rakthanmanon et al. 2012):

- the lower bound LB of a series is, per query point, the distance to
  the series' bounding box, computed with ``_local_cost``'s operations
  and summed over the query points in order;
- the upper bound UB is the least, over the series, of the cost of one
  fixed staircase path from cell (1, 1) to (n, m), summed in path order;
- the series with LB <= UB run the recurrence.

The prune is exact in floats. Rounding is monotone, and on every axis
the box is at least as close to a query point as any point of the
series, so each LB term is at most the cost of every cell of its query
row. Every path meets each query row at least once and the table adds
costs along its path in order, so a series' LB is at most its distance.
The table takes a minimum at every cell, so the nearest distance is at
most UB. A series with LB > UB is thus farther than the nearest and
cannot tie it, and ``<=`` keeps the exact ties: the rule stays the
smallest (distance, label). Both bounds also hold for subsequence DTW,
whose paths meet every query row too and may run from (1, 1) to (n, m).
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


def _local_cost(a, b, total=None, square=None) -> np.ndarray:
    """Euclidean distance of the point pairs ``a`` and ``b`` broadcast to.

    ``a`` and ``b`` give one broadcastable coordinate array per point
    dimension; the squared differences are summed left to right, into
    ``total``, the array the first one is computed in, through ``square``.
    Both are allocated when not given.
    """
    total = np.subtract(a[0], b[0], out=total)
    np.multiply(total, total, out=total)
    for ak, bk in zip(a[1:], b[1:]):
        square = np.subtract(ak, bk, out=square)
        np.multiply(square, square, out=square)
        np.add(total, square, out=total)
    return np.sqrt(total, out=total)


def _wavefront(query: np.ndarray, training: np.ndarray) -> np.ndarray:
    """DTW distances from ``query``, of shape (dims, n), to each series of
    ``training``, of shape (dims, m, series).

    Anti-diagonal ``k`` holds the cells ``(i, k - i)``; its arrays are
    indexed by ``[i, series]``, so cell ``(i, j)`` finds its diagonal,
    upper and left neighbours at ``i - 1`` on diagonal ``k - 2`` and at
    ``i - 1`` and ``i`` on diagonal ``k - 1``. Cell ``(i, j)`` pairs query
    point ``i - 1`` with training point ``j - 1``; with the training axis
    of the local costs reversed, the cells ``lo..hi`` of anti-diagonal
    ``k`` are the diagonal of offset ``m - k + 1``, a view. Diagonal 2 is
    the one cell ``(1, 1)``, its cost plus D(0, 0) = 0, and the loop fills
    diagonals 3 to ``n + m`` in three rotating buffers. The cells a
    diagonal reads outside those its neighbours filled are at index 0,
    which no diagonal writes, or above every index the buffer held a
    cell at, so they stay infinite.
    """
    n = query.shape[1]
    m, count = training.shape[1:]
    # The costs and their scratch in one allocation, which malloc reuses
    # from query to query: as two megabyte arrays against 200 series they
    # were mapped afresh each time, about 770 page faults per query.
    work = np.empty((2, n, m, count))
    cost = _local_cost(query[:, :, None, None], training[:, None], *work)[:, ::-1]
    prev2 = np.full((n + 1, count), math.inf)  # diagonal k - 2
    prev1 = prev2.copy()  # diagonal k - 1
    cur = prev2.copy()
    prev1[1] = cost[0, -1]
    for k in range(3, n + m + 1):
        lo, hi = max(1, k - m), min(n, k - 1)
        best = cur[lo:hi + 1]
        np.minimum(prev2[lo - 1:hi], prev1[lo - 1:hi], out=best)
        np.minimum(best, prev1[lo:hi + 1], out=best)
        np.add(cost.diagonal(m - k + 1).T, best, out=best)
        prev2, prev1, cur = prev1, cur, prev2
    return prev1[n]


def _staircase(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Query and training indices of one monotone path of unit steps from
    cell (1, 1) to cell (n, m), near the table's diagonal."""
    steps = np.arange(max(n, m))
    last = max(len(steps) - 1, 1)
    return steps * (n - 1) // last, steps * (m - 1) // last


@dataclass
class NnModel:
    """1-NN classifier state: the labeled training series.

    ``stack`` holds them for ``_wavefront`` as one (dims, length, series)
    array, and ``low`` and ``high``, of shape (dims, series), the corners
    of each series' bounding box; all three are derived from ``training``.
    """

    training: list[tuple[PositionSeries, str]]
    stack: np.ndarray = field(init=False, repr=False, compare=False)
    low: np.ndarray = field(init=False, repr=False, compare=False)
    high: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        matrices = [_as_matrix(series) for series, _ in self.training]
        shapes = {mat.shape for mat in matrices}
        if len(shapes) > 1:
            raise SeriesError(f"training series differ in (length, dimension): {sorted(shapes)}")
        self.stack = np.stack([mat.T for mat in matrices], axis=2)
        self.low = self.stack.min(axis=1)
        self.high = self.stack.max(axis=1)


def knn_train(labeled_segments: list[tuple[PositionSeries, str]]) -> NnModel:
    if not labeled_segments:
        raise EmptyTrainingSetError("at least one labeled training series required")
    for series, _ in labeled_segments:
        if len(series) == 0:
            raise EmptySeriesError("training series must be non-empty")
    return NnModel(list(labeled_segments))


def _query_matrix(model: NnModel, query) -> np.ndarray:
    """``query``, a series of points (1-D values or vectors), as the
    (dims, n) array ``_wavefront`` takes, checked against ``model``."""
    if len(query) == 0:
        raise EmptySeriesError("query series must be non-empty")
    qm = _as_matrix(query)
    dims = model.stack.shape[0]
    if qm.shape[1] != dims:
        raise SeriesError(f"dimension mismatch: {qm.shape[1]} vs {dims}")
    return qm.T


def knn_distances(model: NnModel, query) -> list[float]:
    """DTW distance from ``query`` to each training series, in training
    order."""
    return _wavefront(_query_matrix(model, query), model.stack).tolist()


def _bounds(model: NnModel, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per training series, the lower bound of its distance from
    ``query``, a (dims, n) array, and the cost of the staircase path
    through its table. Both add their terms in order with ``np.add.accumulate``:
    ``np.sum``'s pairwise order would break the float argument."""
    points = query[:, :, None]
    box = np.maximum(points, model.low[:, None])
    np.minimum(box, model.high[:, None], out=box)
    lower = np.add.accumulate(_local_cost(points, box))[-1]
    rows, cols = _staircase(query.shape[1], model.stack.shape[1])
    path = np.add.accumulate(_local_cost(points[:, rows], model.stack[:, cols]))[-1]
    return lower, path


def knn_classify(model: NnModel, query: PositionSeries) -> str:
    """Label of the training series nearest ``query`` by the distances of
    ``knn_distances``; distance ties pick the lexicographically smallest
    label. Only the series whose lower bound is at most the least path
    cost run the recurrence (see the module docstring)."""
    q = _query_matrix(model, query)
    lower, path = _bounds(model, q)
    keep = np.flatnonzero(lower <= path.min())
    distances = _wavefront(q, model.stack[:, :, keep]).tolist()
    return min(zip(distances, (model.training[i][1] for i in keep.tolist())))[1]
