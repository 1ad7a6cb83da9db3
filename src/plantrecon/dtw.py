"""Dynamic time warping distance and 1-nearest-neighbor classification.

The distance is the classic full-table dynamic program: per-point
Euclidean local cost, symmetric unit steps (match / insert / delete) and
no path-length normalization — rankings only need consistent scaling, and
leaving the raw sum makes the numbers reproducible. An optional
Sakoe-Chiba band restricts alignment to ``|i - j| <= band``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    if isinstance(series, PositionSeries):
        data = np.asarray(series.points, dtype=float)
    else:
        data = np.asarray(series, dtype=float)
    if data.size == 0:
        raise EmptySeriesError("series must be non-empty")
    if data.ndim == 1:
        data = data.reshape(-1, 1)
    return data


def dtw_distance(a, b, band: int | None = None) -> float:
    """DTW distance between two series of points (1-D values or vectors).

    ``band``, when given, must be at least ``|len(a) - len(b)|`` or the
    end cell is unreachable.
    """
    am = _as_matrix(a)
    bm = _as_matrix(b)
    if am.shape[1] != bm.shape[1]:
        raise SeriesError(f"dimension mismatch: {am.shape[1]} vs {bm.shape[1]}")
    n, m = am.shape[0], bm.shape[0]
    if band is not None:
        if band < 0:
            raise BandTooNarrowError("band must be non-negative")
        if band < abs(n - m):
            raise BandTooNarrowError(
                f"band {band} narrower than length difference {abs(n - m)}"
            )
    # Local cost matrix; the inner sum runs over the point dimensions.
    diff = am[:, None, :] - bm[None, :, :]
    cost = np.sqrt((diff * diff).sum(axis=2))
    inf = math.inf
    prev = [inf] * (m + 1)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = [inf] * (m + 1)
        row = cost[i - 1]
        j_lo, j_hi = 1, m
        if band is not None:
            j_lo = max(1, i - band)
            j_hi = min(m, i + band)
        for j in range(j_lo, j_hi + 1):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if cur[j - 1] < best:
                best = cur[j - 1]
            cur[j] = row[j - 1] + best
        prev = cur
    return float(prev[m])


@dataclass
class NnModel:
    """1-NN classifier state: labeled training series plus DTW settings."""

    training: list[tuple[PositionSeries, str]]
    band: int | None = None


def knn_train(labeled_segments: list[tuple[PositionSeries, str]], band: int | None = None) -> NnModel:
    if not labeled_segments:
        raise EmptyTrainingSetError("at least one labeled training series required")
    for series, _ in labeled_segments:
        if len(series) == 0:
            raise EmptySeriesError("training series must be non-empty")
    return NnModel(list(labeled_segments), band)


def knn_classify(model: NnModel, query: PositionSeries) -> str:
    """Label of the nearest training series; distance ties pick the
    lexicographically smallest label.

    A configured band widens per pair to the length difference when
    needed, keeping mixed-length comparisons legal.
    """
    if len(query) == 0:
        raise EmptySeriesError("query series must be non-empty")
    best_label: str | None = None
    best_dist = math.inf
    for series, label in model.training:
        band = model.band
        if band is not None and band < abs(len(series) - len(query)):
            band = abs(len(series) - len(query))
        d = dtw_distance(query, series, band)
        if d < best_dist or (d == best_dist and (best_label is None or label < best_label)):
            best_dist = d
            best_label = label
    assert best_label is not None
    return best_label
