import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantrecon import dtw
from plantrecon.dtw import (
    EmptySeriesError,
    EmptyTrainingSetError,
    SeriesError,
    knn_classify,
    knn_distances,
    knn_train,
)

from oracles import dtw_oracle


def _series(points):
    pts = [(float(p), 0.0, 0.0) if isinstance(p, (int, float)) else tuple(p) for p in points]
    return np.array(pts, dtype=float).reshape(-1, 3)


def pair_distance(a, b):
    """DTW distance of one pair, through the pipeline's kernel with ``b``
    as its one training series."""
    return knn_distances(knn_train([(b, "x")]), a)[0]


class TestDtwBasics:
    def test_identical_series_zero(self):
        a = [(0.0, 1.0, 2.0), (3.0, 4.0, 5.0)]
        assert pair_distance(a, a) == 0.0

    def test_hand_computed_example(self):
        # 1-D: a=[0,1,2], b=[0,2]; full table gives 1.
        assert pair_distance([0.0, 1.0, 2.0], [0.0, 2.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySeriesError):
            pair_distance([0.0, 1.0], [])

    def test_position_series_inputs(self):
        a = _series([0, 1, 2])
        b = _series([0, 2])
        assert pair_distance(a, b) == 1.0


def _random_series(rng, dims, n=None):
    n = rng.randint(1, 50) if n is None else n
    if dims == 1:
        return [rng.uniform(-10, 10) for _ in range(n)]
    return [tuple(rng.uniform(-10, 10) for _ in range(dims)) for _ in range(n)]


class TestOracleEquivalence:
    def test_exact_equality_on_200_random_pairs(self):
        rng = random.Random(20240817)
        checked = 0
        for case in range(200):
            dims = 1 if case % 2 == 0 else 3
            a = _random_series(rng, dims)
            b = _random_series(rng, dims)
            assert pair_distance(a, b) == dtw_oracle(a, b)
            checked += 1
        assert checked == 200


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=20),
    b=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=20),
)
def test_symmetry_and_nonnegativity(a, b):
    d1 = pair_distance(a, b)
    d2 = pair_distance(b, a)
    assert d1 == d2
    assert d1 >= 0.0


@settings(max_examples=60, deadline=None)
@given(a=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=15))
def test_zero_iff_run_length_equal(a):
    assert pair_distance(a, a) == 0.0
    # Zero distance characterizes series equal up to repeated points.
    b = a + [a[-1]]
    assert pair_distance(a, b) == 0.0
    c = [x + 1.0 for x in a]
    assert pair_distance(a, c) > 0.0


class TestKnn:
    def test_query_equal_to_training_series(self):
        model = knn_train([(_series([1, 2, 3]), "x"), (_series([7, 8, 9]), "y")])
        assert knn_classify(model, _series([7, 8, 9])) == "y"

    def test_strict_dominance(self):
        near_one = _series([1.0, 1.1, 0.9])
        near_three = _series([3.0, 3.1, 2.9])
        model = knn_train([(near_one, "one"), (near_three, "three")])
        assert knn_classify(model, _series([1.05, 0.95])) == "one"

    def test_equidistant_tie_prefers_smaller_label(self):
        model = knn_train([(_series([0.0]), "rowB"), (_series([2.0]), "rowA")])
        assert knn_classify(model, _series([1.0])) == "rowA"

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSetError):
            knn_train([])

    def test_empty_query(self):
        model = knn_train([(_series([1.0]), "x")])
        with pytest.raises(EmptySeriesError):
            knn_classify(model, np.empty((0, 3)))

    def test_rigid_translation_invariance(self):
        rng = random.Random(99)
        training = []
        for label, base in (("a", 0.0), ("b", 5.0), ("c", -4.0)):
            for _ in range(3):
                pts = [
                    (base + rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 0.0)
                    for _ in range(6)
                ]
                training.append((_series(pts), label))
        queries = [
            _series([(rng.uniform(-6, 6), rng.uniform(-1, 1), 0.0) for _ in range(5)])
            for _ in range(10)
        ]
        model = knn_train(training)
        before = [knn_classify(model, q) for q in queries]
        shift = (13.0, -7.0, 3.0)

        def translate(series):
            return _series([(x + shift[0], y + shift[1], z + shift[2]) for (x, y, z) in series])

        model_t = knn_train([(translate(s), label) for s, label in training])
        after = [knn_classify(model_t, translate(q)) for q in queries]
        assert before == after


def _scalar_knn(training, query):
    """Per-pair reference: the scalar oracle on every training series,
    then the (distance, label) tie-break of knn_classify."""
    distances = []
    best_label, best = None, math.inf
    for series, label in training:
        d = dtw_oracle(query, series)
        distances.append(d)
        if d < best or (d == best and (best_label is None or label < best_label)):
            best_label, best = label, d
    return best_label, distances


class TestBatchedEqualsScalar:
    @pytest.mark.parametrize("dims", [1, 3])
    def test_random_training_sets(self, dims):
        # Each set has one length; the queries have any length.
        rng = random.Random(1000 * dims + 1)
        for _ in range(15):
            training = []
            length = rng.randint(1, 50)
            for _ in range(rng.randint(1, 12)):
                series = _random_series(rng, dims, length)
                training.append((series, rng.choice("abcd")))
                if rng.random() < 0.3:
                    # The same series under another label: an exact tie.
                    training.append((list(series), rng.choice("abcd")))
            model = knn_train(training)
            for _ in range(4):
                if rng.random() < 0.25:
                    query = list(rng.choice(training)[0])
                else:
                    query = _random_series(rng, dims)
                label, distances = _scalar_knn(training, query)
                assert knn_distances(model, query) == distances
                assert knn_classify(model, query) == label

    def test_tied_labels_pick_the_smallest(self):
        series = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)]
        far = [(9.0, 0.0, 0.0)] * 3
        model = knn_train([(series, "c"), (far, "a"), (list(series), "b"), (series, "d")])
        query = [(0.5, 0.0, 0.0), (1.5, 0.0, 0.0)]
        distances = knn_distances(model, query)
        assert distances[0] == distances[2] == distances[3]
        assert knn_classify(model, query) == _scalar_knn(model.training, query)[0] == "b"

    def test_dimension_mismatch(self):
        model = knn_train([([(0.0, 0.0, 0.0)], "x")])
        with pytest.raises(SeriesError):
            knn_classify(model, [1.0])
        with pytest.raises(SeriesError):
            knn_train([([(0.0, 0.0, 0.0)], "x"), ([1.0], "y")])

    def test_training_series_of_two_lengths_rejected(self):
        with pytest.raises(SeriesError, match="differ"):
            knn_train([([1.0, 2.0], "x"), ([1.0, 2.0, 3.0], "y")])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_training_series_rejected(self, bad):
        with pytest.raises(SeriesError, match="finite"):
            knn_train([([1.0, bad, 3.0], "x"), ([1.0, 2.0, 3.0], "y")])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_rejected(self, bad):
        model = knn_train([([1.0, 2.0, 3.0], "x"), ([2.0, 3.0, 4.0], "y")])
        with pytest.raises(SeriesError, match="finite"):
            knn_classify(model, [1.0, bad])


def _bounds(training, query):
    """The prune's lower bound and path cost of each training series."""
    model = knn_train(training)
    return dtw._bounds(model, dtw._query_matrix(model, query))


class TestExactPrune:
    @pytest.mark.parametrize("dims", [1, 3])
    def test_pruned_equals_unpruned_and_oracle(self, dims):
        # Classes around separate centres, so the bounds prune; copies of a
        # series under other labels, so exact ties occur.
        rng = random.Random(3000 + dims)
        pruned = ties = 0
        for _ in range(8):
            length = rng.randint(1, 16)
            training = []
            for label in rng.sample("abcdef", rng.randint(2, 5)):
                centre = rng.uniform(-30, 30)
                for _ in range(rng.randint(1, 4)):
                    series = [
                        p + centre if dims == 1 else tuple(c + centre for c in p)
                        for p in _random_series(rng, dims, length)
                    ]
                    training.append((series, label))
                    if rng.random() < 0.3:
                        training.append((list(series), rng.choice("abcdef")))
            model = knn_train(training)
            labels = [label for _, label in training]
            for n in (1, 40, *(rng.randint(1, 40) for _ in range(4))):
                if rng.random() < 0.3:
                    source = rng.choice(training)[0]
                    query = [source[int(i * len(source) / n)] for i in range(n)]
                else:
                    query = [
                        p + rng.uniform(-30, 30) if dims == 1 else p
                        for p in _random_series(rng, dims, n)
                    ]
                label, distances = _scalar_knn(training, query)
                assert knn_classify(model, query) == label
                assert min(zip(knn_distances(model, query), labels))[1] == label
                lower, path = _bounds(training, query)
                pruned += int((lower > path.min()).sum())
                ties += distances.count(min(distances)) > 1
        assert pruned > 0 and ties > 0

    def test_bounds_hold_on_random_pairs(self):
        rng = random.Random(424242)
        for case in range(300):
            dims = 1 if case % 2 == 0 else 3
            a = _random_series(rng, dims, rng.randint(1, 40))
            b = _random_series(rng, dims, rng.randint(1, 32))
            if case % 5 == 0:
                # A constant series: its box is one point, and the bound
                # can equal the distance exactly.
                b = [b[0]] * len(b)
            lower, path = _bounds([(b, "x")], a)
            assert lower[0] <= dtw_oracle(a, b)
            assert path[0] >= pair_distance(a, b)

    def test_tie_at_the_bound_is_kept(self):
        # "a" is at distance 2 with a lower bound of exactly 2, the least
        # path cost; "b" ties it from a lower bound of 0. Pruning at
        # lower < bound instead of <= would drop "a" and answer "b".
        training = [([0.0, 2.0], "b"), ([1.0, 1.0], "a")]
        query = [0.0, 0.0]
        lower, path = _bounds(training, query)
        assert lower.tolist() == [0.0, 2.0] and path.min() == 2.0
        assert knn_distances(knn_train(training), query) == [2.0, 2.0]
        assert knn_classify(knn_train(training), query) == "a"


def test_dtw_and_clustering_do_not_load_traces():
    # Positions reach the classifier and k-means as plain arrays and
    # mappings: neither module needs the trace loaders.
    script = (
        "import sys, plantrecon.dtw, plantrecon.clustering\n"
        "print('plantrecon.traces' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dtw.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]
