import logging
import math

import numpy as np
import pytest

from plantrecon.clustering import (
    ClusteringError,
    InsufficientDataError,
    KMeansParams,
    cluster_positions,
    kmeans,
)
from plantrecon.traces import PositionEstimate


def _known(tag, x, y=0.0, z=0.0):
    return PositionEstimate(tag, (x, y, z), 10)


def _unknown(tag):
    return PositionEstimate(tag, None, 0)


class TestKMeans:
    def test_two_tight_clusters_split_exactly(self):
        estimates = [
            _known("a1", 1.0), _known("a2", 1.01), _known("a3", 0.99),
            _known("b1", 3.0), _known("b2", 3.01), _known("b3", 2.99),
        ]
        result = cluster_positions(estimates, KMeansParams(k=2, seed=7))
        partition = result.partition()
        assert {frozenset(v) for v in partition.values()} == {
            frozenset({"a1", "a2", "a3"}),
            frozenset({"b1", "b2", "b3"}),
        }

    def test_all_unknown_raises(self):
        with pytest.raises(InsufficientDataError):
            cluster_positions([_unknown("a"), _unknown("b")], KMeansParams(k=2, seed=0))

    def test_line_splits_at_midpoint(self):
        # Evenly spaced points along a line: the k=2 split lands at the
        # midpoint, the degradation expected for continuous trajectories.
        estimates = [_known(f"t{i:02d}", float(i)) for i in range(10)]
        result = cluster_positions(estimates, KMeansParams(k=2, seed=3))
        partition = {frozenset(v) for v in result.partition().values()}
        left = frozenset(f"t{i:02d}" for i in range(5))
        right = frozenset(f"t{i:02d}" for i in range(5, 10))
        assert partition == {left, right}

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(42)
        points = rng.normal(size=(40, 3))
        a = kmeans(points, KMeansParams(k=4, seed=11))
        b = kmeans(points, KMeansParams(k=4, seed=11))
        assert (a == b).all()

    def test_unknowns_rejected_not_clustered(self):
        estimates = [_known("a", 0.0), _known("b", 5.0), _unknown("c")]
        result = cluster_positions(estimates, KMeansParams(k=2, seed=0))
        assert set(result.assignments) == {"a", "b"}

    @pytest.mark.parametrize("x", [1e200, -1e308, 1e308, math.nan])
    def test_overflowing_positions_refused(self, x):
        estimates = [_known("a", 0.0), _known("b", x), _known("c", 1.0)]
        with pytest.raises(ClusteringError, match="too large to cluster"):
            cluster_positions(estimates, KMeansParams(k=2, seed=0))


class TestKMeansDegenerate:
    def test_k_above_known_count_warns_once(self, caplog):
        estimates = [_known("a", 0.0), _known("b", 5.0), _known("c", 9.0), _unknown("d")]
        with caplog.at_level(logging.WARNING, logger="plantrecon.clustering"):
            result = cluster_positions(estimates, KMeansParams(k=500, seed=0))
        assert sorted(result.assignments.values()) == ["C0", "C1", "C2"]
        [record] = caplog.records
        assert "500" in record.getMessage() and "3 Known" in record.getMessage()

    def test_k_within_known_count_is_silent(self, caplog):
        estimates = [_known("a", 0.0), _known("b", 5.0)]
        with caplog.at_level(logging.WARNING, logger="plantrecon.clustering"):
            cluster_positions(estimates, KMeansParams(k=2, seed=0))
        assert caplog.records == []

    def test_identical_points_form_one_cluster(self):
        # Seeding runs out of positive weights after the first center, and
        # Lloyd re-seeds the two empty clusters on the same point.
        estimates = [_known(f"t{i}", 2.0, 1.0) for i in range(5)]
        result = cluster_positions(estimates, KMeansParams(k=3, seed=0))
        assert result.assignments == {f"t{i}": "C0" for i in range(5)}

    def test_two_positions_form_two_clusters(self):
        estimates = [_known(f"a{i}", 0.0) for i in range(3)] + [
            _known(f"b{i}", 2.0, 1.0) for i in range(3)
        ]
        points = np.array([e.mean for e in estimates])
        labels = kmeans(points, KMeansParams(k=3, seed=5))
        centers = {tuple(points[labels == c].mean(axis=0)) for c in set(labels.tolist())}
        assert centers == {(0.0, 0.0, 0.0), (2.0, 1.0, 0.0)}
        partition = cluster_positions(estimates, KMeansParams(k=3, seed=5)).partition()
        assert partition == {"C0": {"a0", "a1", "a2"}, "C1": {"b0", "b1", "b2"}}

    def test_seed_stream_is_pinned(self):
        # The labels are the raw cluster indices, which follow the order in
        # which k-means++ drew its centers: a change of the stream shows.
        xy = [(0, 0), (1, 0), (2, 0), (4, 0), (5, 0), (6, 0),
              (8, 0), (9, 0), (10, 0), (0, 3), (5, 3), (10, 3)]
        points = np.array([(float(x), float(y), 0.0) for x, y in xy])
        labels = kmeans(points, KMeansParams(k=3, seed=11))
        assert labels.tolist() == [2, 2, 2, 0, 0, 0, 1, 1, 1, 2, 0, 1]
