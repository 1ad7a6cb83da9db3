import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantrecon.metrics import (
    MetricsReport,
    UniverseMismatchError,
    ari,
    evaluate,
    pairwise_f1,
    template_precision,
    template_recovery,
)
from plantrecon.mining import Pattern, mine, project_for_mining

from oracles import ari_oracle, pairwise_f1_oracle


class TestAri:
    def test_identical_partitions(self):
        p = {"a": "x", "b": "x", "c": "y"}
        assert ari(p, dict(p)) == 1.0

    def test_crossed_pairs_value(self):
        a = {"a": "1", "b": "1", "c": "2", "d": "2"}
        b = {"a": "1", "b": "2", "c": "1", "d": "2"}
        assert ari(a, b) == pytest.approx(ari_oracle(a, b))
        assert ari(a, b) < 0.0  # disagreement beyond chance

    def test_label_permutation_invariant(self):
        a = {"a": "1", "b": "1", "c": "2", "d": "3"}
        b = {k: {"1": "z", "2": "q", "3": "w"}[v] for k, v in a.items()}
        assert ari(a, b) == 1.0

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            ari({"a": "1"}, {"b": "1"})

    def test_empty_partitions(self):
        assert ari({}, {}) == 1.0

    def test_oracle_equivalence_random_partitions(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 20)
            elements = [f"e{i}" for i in range(n)]
            a = {e: str(rng.randint(0, 4)) for e in elements}
            b = {e: str(rng.randint(0, 4)) for e in elements}
            assert ari(a, b) == pytest.approx(ari_oracle(a, b), abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=999999),
)
def test_ari_matches_pair_counting_property(n, seed):
    rng = random.Random(seed)
    elements = [f"e{i}" for i in range(n)]
    a = {e: str(rng.randint(0, 3)) for e in elements}
    b = {e: str(rng.randint(0, 3)) for e in elements}
    assert ari(a, b) == pytest.approx(ari_oracle(a, b), abs=1e-12)


class TestPairwiseF1:
    def test_perfect(self):
        p = {"a": "x", "b": "x", "c": "y"}
        assert pairwise_f1(p, dict(p)) == 1.0

    def test_no_overlap(self):
        truth = {"a": "x", "b": "x", "c": "y", "d": "y"}
        pred = {"a": "x", "b": "y", "c": "x", "d": "y"}
        # Predicted pairs {a,c},{b,d}; truth pairs {a,b},{c,d}: no overlap.
        assert pairwise_f1(truth, pred) == 0.0

    def test_all_singletons_equal(self):
        p = {"a": "1", "b": "2", "c": "3"}
        assert pairwise_f1(p, dict(p)) == 1.0

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            pairwise_f1({"a": "1"}, {"b": "1"})

    def test_equals_pair_loop_exactly(self):
        rng = random.Random(12)
        for _ in range(500):
            elements = [f"e{i}" for i in range(rng.randint(0, 25))]
            groups = rng.randint(1, 6)
            a = {e: str(rng.randrange(groups)) for e in elements}
            b = {e: str(rng.randrange(groups)) for e in elements}
            assert pairwise_f1(a, b) == pairwise_f1_oracle(a, b)


class TestTemplateRecovery:
    def _mined(self, support):
        return Pattern(
            code=(),
            support=support,
            embeddings=[],
            vertex_labels=("FunctionalGroup", "Sensor"),
            arcs=((0, 1, "Contains"),),
        )

    def test_all_found(self):
        expected = [
            {"name": "t", "support": 4, "vertices": ["FunctionalGroup", "Sensor"],
             "edges": [[0, 1, "Contains"]]}
        ]
        assert template_recovery(expected, [self._mined(4)]) == 1.0

    def test_none_found(self):
        expected = [
            {"name": "t", "support": 4, "vertices": ["FunctionalGroup", "Sensor"],
             "edges": [[0, 1, "Contains"]]}
        ]
        assert template_recovery(expected, [self._mined(3)]) == 0.0
        assert template_recovery(expected, []) == 0.0

    def test_support_must_match(self):
        expected = [
            {"name": "t", "support": 4, "vertices": ["FunctionalGroup", "Sensor"],
             "edges": [[0, 1, "Contains"]]},
            {"name": "u", "support": 9, "vertices": ["Sensor", "FunctionalGroup"],
             "edges": [[1, 0, "Contains"]]},
        ]
        mined = [self._mined(4), self._mined(8)]
        assert template_recovery(expected, mined) == 0.5

    def test_empty_expectations(self):
        assert template_recovery([], []) == 1.0


class TestTemplatePrecision:
    EXPECTED = [
        {"name": "t", "support": 4, "vertices": ["FunctionalGroup", "Sensor"],
         "edges": [[0, 1, "Contains"]]}
    ]

    def test_share_of_mined_templates_expected(self):
        # The expected structure at its support, at another support, and
        # with the Contains arc reversed.
        mined = [
            Pattern((), 4, [], ("FunctionalGroup", "Sensor"), ((0, 1, "Contains"),)),
            Pattern((), 3, [], ("FunctionalGroup", "Sensor"), ((0, 1, "Contains"),)),
            Pattern((), 4, [], ("Sensor", "FunctionalGroup"), ((0, 1, "Contains"),)),
        ]
        assert template_precision(self.EXPECTED, mined) == pytest.approx(1 / 3)
        assert template_precision([], mined) == 0.0

    def test_nothing_mined_is_not_scored(self):
        assert template_precision(self.EXPECTED, []) is None

    def test_mini_plant(self, mini_plant, mini_functional):
        # The mini plant's one expected template is its place (support 2),
        # and the unit search mines exactly it.
        truth = mini_plant.ground_truth
        assert [t["name"] for t in truth.templates] == ["place"]
        templates = mine(project_for_mining(mini_functional), 2, 3, 12)
        report = evaluate(mini_functional, templates, truth, classified=False)
        assert (report.template_recovery, report.template_precision) == (1.0, 1.0)


class TestReportText:
    def test_runtime_not_in_deterministic_body(self):
        report = MetricsReport(
            ari=1.0,
            pairwise_f1=1.0,
            classification_accuracy=0.98,
            template_recovery=1.0,
            clustering_ari=0.4,
        )
        text = report.to_text()
        assert "runtime" not in text
        assert "ari = 1.0" in text
        assert "clustering_ari = 0.4" in text

    def test_unset_metrics_have_no_line(self):
        report = MetricsReport(ari=1.0, pairwise_f1=1.0, template_recovery=1.0)
        assert report.to_text() == "ari = 1.0\npairwise_f1 = 1.0\ntemplate_recovery = 1.0\n"

    def test_template_precision_line(self):
        report = MetricsReport(ari=1.0, pairwise_f1=1.0, template_recovery=1.0, template_precision=0.2)
        assert report.to_text() == (
            "ari = 1.0\npairwise_f1 = 1.0\ntemplate_precision = 0.2\ntemplate_recovery = 1.0\n"
        )
