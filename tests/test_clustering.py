import numpy as np
import pytest

from plantrecon.clustering import InsufficientDataError, KMeansParams, cluster_positions, kmeans
from plantrecon.traces import EstimateStatus, PositionEstimate


def _known(tag, x, y=0.0, z=0.0):
    return PositionEstimate(tag, (x, y, z), 10, EstimateStatus.KNOWN)


def _unknown(tag):
    return PositionEstimate(tag, None, 0, EstimateStatus.UNKNOWN)


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
        assert result.rejected == ["c"]
        assert set(result.assignments) == {"a", "b"}
