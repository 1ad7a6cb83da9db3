import logging
import math
import random

import pytest

from oracles import events_oracle
from plantrecon import synth
from plantrecon.dynamics import (
    DynamicsParams,
    analyze_dynamics,
    build_physical_groups,
    component_event_series,
    training_segments,
)
from plantrecon.graph import EdgeKind, NodeKind, merge
from plantrecon.plc import parse_project
from plantrecon.traces import (
    EstimateStatus,
    PositionEstimate,
    TraceError,
    load_io_trace,
    load_rtls_trace,
)


def _tag_maps(plant):
    project = parse_project(plant.plc_xml)
    kinds = {t.name: (NodeKind.SENSOR if t.is_input else NodeKind.ACTUATOR) for t in project.tags}
    types = {t.name: t.data_type.value for t in project.tags}
    return project, kinds, types


@pytest.fixture(scope="module")
def mini_dynamics(mini_plant, plant_traces):
    project, kinds, types = _tag_maps(mini_plant)
    io, rtls, labeled = plant_traces(mini_plant)
    return analyze_dynamics(io, rtls, training_segments(labeled), kinds, types, project.name, DynamicsParams())


class TestMiniDynamics:
    def test_every_field_device_assigned(self, mini_plant, mini_dynamics):
        truth = mini_plant.ground_truth.physical_partition
        assert set(mini_dynamics.assignments) == set(truth)
        assert mini_dynamics.assignments == truth

    def test_noise_free_positions_within_motion_bound(self, mini_plant, mini_dynamics):
        # One RTLS sample interval at tray speed bounds the match error.
        interval_s = 1.0 / mini_plant.spec.rtls_rate_hz
        bound = synth.TRAY_SPEED_M_PER_S * interval_s + 1e-9
        for tag, true_pos in mini_plant.ground_truth.true_positions.items():
            est = mini_dynamics.estimates[tag]
            assert est.status is EstimateStatus.KNOWN
            err = math.dist(est.mean, true_pos)
            assert err <= bound, (tag, err, bound)

    def test_physical_groups_fragment(self, mini_plant, mini_dynamics):
        g = mini_dynamics.fragment
        groups = g.query(kinds={NodeKind.PHYSICAL_GROUP})
        assert [n.name for n in groups] == ["L1R1P1", "L1R1P2"]
        for group in groups:
            members = [e.source for e in g.in_edges(group.id, EdgeKind.MEMBER_OF_PHYSICAL)]
            assert len(members) == 2

    def test_tracker_nodes_present(self, mini_dynamics):
        trackers = mini_dynamics.fragment.query(kinds={NodeKind.MATERIAL_TRACKER})
        assert [t.name for t in trackers] == ["tray01"]

    def test_merge_with_functional_keeps_both_views(self, mini_functional, mini_dynamics):
        merged = merge(mini_functional, mini_dynamics.fragment)
        sensor = merged.node("Sensor:S_occ_1_1")
        assert "position.x" in sensor.labels
        in_kinds = {e.kind for e in merged.in_edges(sensor.id)}
        assert EdgeKind.READS in in_kinds
        out_kinds = {e.kind for e in merged.out_edges(sensor.id)}
        assert EdgeKind.MEMBER_OF_PHYSICAL in out_kinds
        assert merged.validate() == []

    def test_query_member_of_physical_after_merge(self, mini_functional, mini_dynamics):
        merged = merge(mini_functional, mini_dynamics.fragment)
        devices = [
            n for n in merged.nodes()
            if n.kind in {NodeKind.SENSOR, NodeKind.ACTUATOR}
            and merged.out_edges(n.id, EdgeKind.MEMBER_OF_PHYSICAL)
        ]
        assert len(devices) == 4


class TestClusterMode:
    def test_cluster_mode_produces_partition(self, mini_plant, plant_traces):
        project, kinds, types = _tag_maps(mini_plant)
        io, rtls, _ = plant_traces(mini_plant)
        from plantrecon.clustering import KMeansParams

        result = analyze_dynamics(
            io,
            rtls,
            [],
            kinds,
            types,
            project.name,
            DynamicsParams(cluster=KMeansParams(k=2, seed=1)),
        )
        # Two spatial clusters: the two places (all components Known).
        partition = {}
        for tag, label in result.assignments.items():
            partition.setdefault(label, set()).add(tag)
        assert {frozenset(v) for v in partition.values()} == {
            frozenset({"S_occ_1_1", "A_eject_1_1"}),
            frozenset({"S_occ_1_2", "A_eject_1_2"}),
        }


def _dynamics_warnings(caplog):
    return [
        r for r in caplog.records
        if r.name == "plantrecon.dynamics" and r.levelno == logging.WARNING
    ]


class TestDegenerateInputs:
    def test_empty_rtls_trace_warns(self, mini_plant, plant_traces, load_rows, caplog):
        project, kinds, types = _tag_maps(mini_plant)
        io, _, labeled = plant_traces(mini_plant)
        empty = load_rows(load_rtls_trace, [])
        with caplog.at_level(logging.WARNING, logger="plantrecon.dynamics"):
            result = analyze_dynamics(io, empty, training_segments(labeled), kinds, types, project.name)
        assert result.assignments == {}
        warnings = _dynamics_warnings(caplog)
        assert len(warnings) == 1
        assert "RTLS trace is empty" in warnings[0].getMessage()

    def test_undeclared_io_tags_warn_once(self, mini_plant, plant_traces, load_rows, caplog):
        project, kinds, types = _tag_maps(mini_plant)
        _, rtls, labeled = plant_traces(mini_plant)
        io = load_rows(load_io_trace, mini_plant.io_rows + [(1000, f"X_{i}", 1.0) for i in range(7)])
        with caplog.at_level(logging.WARNING, logger="plantrecon.dynamics"):
            result = analyze_dynamics(io, rtls, training_segments(labeled), kinds, types, project.name)
        assert result.assignments == mini_plant.ground_truth.physical_partition
        warnings = _dynamics_warnings(caplog)
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        assert "7 IO tag(s) not declared by the PLC" in message
        assert "X_0, X_1, X_2, X_3, X_4, ..." in message
        assert "X_5" not in message

    def test_unmatched_tags_warn_once(self, mini_plant, plant_traces, load_rows, caplog):
        # The RTLS clock runs a day late: every device has events and no
        # position within the window, so all of them stay Unknown.
        project, kinds, types = _tag_maps(mini_plant)
        io, _, labeled = plant_traces(mini_plant)
        late = [(t + 86_400_000, tr, x, y, z, None) for (t, tr, x, y, z, _) in mini_plant.rtls_rows]
        rtls = load_rows(load_rtls_trace, late)
        with caplog.at_level(logging.WARNING, logger="plantrecon.dynamics"):
            result = analyze_dynamics(io, rtls, training_segments(labeled), kinds, types, project.name)
        assert result.assignments == {}
        assert {e.match_count for e in result.estimates.values()} == {0}
        warnings = _dynamics_warnings(caplog)
        assert len(warnings) == 1
        assert warnings[0].getMessage() == (
            "4 declared tag(s) with events matched fewer than 5 positions and stay Unknown: "
            "A_eject_1_1, A_eject_1_2, S_occ_1_1, S_occ_1_2"
        )

    def test_tags_below_min_matches_warn_once(self, reference_plant, plant_traces, caplog):
        project, kinds, types = _tag_maps(reference_plant)
        io, rtls, labeled = plant_traces(reference_plant)
        params = DynamicsParams(min_matches=10**6)
        with caplog.at_level(logging.WARNING, logger="plantrecon.dynamics"):
            result = analyze_dynamics(
                io, rtls, training_segments(labeled), kinds, types, project.name, params
            )
        assert result.assignments == {}
        assert max(e.match_count for e in result.estimates.values()) > 0
        warnings = _dynamics_warnings(caplog)
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        assert message.startswith("54 declared tag(s) with events matched fewer than 1000000 ")
        assert message.endswith(
            ": A_dock_1, A_dock_2, A_dock_3, A_dock_4, A_eject_1_1_1, ..."
        )

    def test_clean_inputs_do_not_warn(self, mini_plant, plant_traces, caplog):
        project, kinds, types = _tag_maps(mini_plant)
        io, rtls, labeled = plant_traces(mini_plant)
        with caplog.at_level(logging.WARNING, logger="plantrecon.dynamics"):
            analyze_dynamics(io, rtls, training_segments(labeled), kinds, types, project.name)
        assert _dynamics_warnings(caplog) == []


    @pytest.mark.parametrize("which", ["io", "rtls"])
    def test_timestamp_beyond_bound_raises(self, mini_plant, plant_traces, load_rows, which):
        project, kinds, types = _tag_maps(mini_plant)
        io, rtls, labeled = plant_traces(mini_plant)
        _, tag, value = mini_plant.io_rows[-1]
        with pytest.raises(TraceError, match="below 2\\*\\*62 ms"):
            if which == "io":
                io = load_rows(load_io_trace, mini_plant.io_rows + [(2**63 + 5, tag, 1.0 - value)])
            else:
                late = (2**63, "tray01", 0.0, 0.0, 0.0, None)
                rtls = load_rows(load_rtls_trace, mini_plant.rtls_rows + [late])
            analyze_dynamics(io, rtls, training_segments(labeled), kinds, types, project.name)

    def test_non_finite_rows_raise(self, mini_plant, plant_traces, load_rows):
        project, kinds, types = _tag_maps(mini_plant)
        io, _, labeled = plant_traces(mini_plant)
        rows = [(t, tr, math.nan, y, z, None) for (t, tr, _, y, z, _) in mini_plant.rtls_rows]
        with pytest.raises(TraceError, match="non-finite coordinate"):
            rtls = load_rows(load_rtls_trace, rows)
            analyze_dynamics(io, rtls, training_segments(labeled), kinds, types, project.name)


def _noisy_level_rows(tag: str, plateaus: int, seed: int) -> tuple[list, int]:
    """An Int tag switching between about 0 and about 100, with integer
    noise of up to 3 on each plateau. Each switch passes the mid-range
    once and then falls back to it, inside the 2 % band, so a detector
    without hysteresis would fire twice. Returns the rows and the number
    of switches."""
    rng = random.Random(seed)
    rows, t, high = [], 0, False
    for plateau in range(plateaus):
        if plateau:
            high = not high
            for value in ((45, 55, 50) if high else (55, 45, 50)):
                rows.append((t, tag, float(value)))
                t += 10
        for _ in range(rng.randint(3, 8)):
            rows.append((t, tag, float((100 if high else 0) + rng.randint(-3, 3))))
            t += 10
    return rows, plateaus - 1


class TestAnalogEvents:
    """component_event_series on Int and Real tags: the threshold sits
    mid-range and the hysteresis band is 2 % of the tag's value range."""

    def test_noisy_int_tag_equals_oracle(self, load_rows):
        rows, switches = _noisy_level_rows("A_level", 30, seed=5)
        bool_rows = [(t, "S_flag", float(k % 2)) for k, (t, _, _) in enumerate(rows[::4])]
        io = load_rows(load_io_trace, rows + bool_rows)
        events = component_event_series(io, {"A_level": "Int", "S_flag": "Bool"})

        samples = [(t, value) for t, _, value in rows]
        lo, hi = min(v for _, v in samples), max(v for _, v in samples)
        expected = events_oracle(samples, True, (lo + hi) / 2, 0.02 * (hi - lo))
        assert events["A_level"].tolist() == expected
        assert len(expected) == switches
        bool_samples = [(t, value) for t, _, value in bool_rows]
        assert events["S_flag"].tolist() == events_oracle(bool_samples)

    def test_constant_analog_tag_has_no_events(self, load_rows):
        io = load_rows(load_io_trace, [(t, "A_temp", 12.5) for t in range(0, 1000, 10)])
        assert component_event_series(io, {"A_temp": "Real"})["A_temp"].tolist() == []


class TestBuildPhysicalGroups:
    def test_empty_assignments_no_groups(self):
        g = build_physical_groups({}, {}, {}, "P")
        assert g.query(kinds={NodeKind.PHYSICAL_GROUP}) == []

    def test_positions_written_only_for_known(self):
        estimates = {
            "s1": PositionEstimate((1.0, 2.0, 3.0), 9),
            "s2": PositionEstimate(None, 1),
        }
        g = build_physical_groups(
            {"s1": "zone"},
            estimates,
            {"s1": NodeKind.SENSOR, "s2": NodeKind.SENSOR},
            "P",
        )
        assert g.node("Sensor:s1").labels["position.x"] == 1.0
        assert not g.has_node("Sensor:s2")


class TestPaperScaleClassification:
    def test_row_granularity_assignment_noise_free(self, reference_plant, plant_traces):
        project, kinds, types = _tag_maps(reference_plant)
        io, rtls, labeled = plant_traces(reference_plant)
        result = analyze_dynamics(io, rtls, training_segments(labeled), kinds, types, project.name, DynamicsParams())
        truth = reference_plant.ground_truth.physical_partition
        known = [t for t, e in result.estimates.items() if e.status is EstimateStatus.KNOWN]
        # The offline panel never fires, so its tags must stay Unknown.
        offline = {t for t, z in truth.items() if z == "OFFLINE"}
        assert offline.isdisjoint(known)
        assert len(known) == 54
        correct = sum(1 for t in known if result.assignments.get(t) == truth[t])
        assert correct == len(known)

    def test_row_granularity_physical_groups(self, reference_plant, plant_traces):
        project, kinds, types = _tag_maps(reference_plant)
        io, rtls, labeled = plant_traces(reference_plant)
        result = analyze_dynamics(io, rtls, training_segments(labeled), kinds, types, project.name, DynamicsParams())
        groups = {n.name for n in result.fragment.query(kinds={NodeKind.PHYSICAL_GROUP})}
        # Eight storage-row groups (2 levels x 4 rows) plus the unit zones.
        rows = {f"L{l}R{r}" for l in (1, 2) for r in (1, 2, 3, 4)}
        assert rows <= groups
        assert groups == set(reference_plant.ground_truth.zone_labels)
