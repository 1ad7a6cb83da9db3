import logging
import math

import pytest

from plantrecon import synth
from plantrecon.dynamics import DynamicsParams, analyze_dynamics, build_physical_groups
from plantrecon.graph import EdgeKind, NodeKind, merge
from plantrecon.plc import parse_project
from plantrecon.traces import (
    EstimateStatus,
    IoTrace,
    PositionEstimate,
    RtlsTrace,
    TraceError,
)


def _tag_maps(plant):
    project = parse_project(plant.plc_xml)
    kinds = {t.name: (NodeKind.SENSOR if t.is_input else NodeKind.ACTUATOR) for t in project.tags}
    types = {t.name: t.data_type.value for t in project.tags}
    return project, kinds, types


def _unlabeled_rows(plant):
    return [(t, tr, x, y, z, None) for (t, tr, x, y, z, _) in plant.rtls_rows]


def _samples(plant):
    io = IoTrace.from_rows(plant.io_rows)
    rtls = RtlsTrace.from_rows(_unlabeled_rows(plant))
    labeled = RtlsTrace.from_rows(plant.rtls_rows)
    return io, rtls, labeled


EMPTY_TRACE = RtlsTrace.from_rows([])


@pytest.fixture(scope="module")
def mini_dynamics(mini_plant):
    project, kinds, types = _tag_maps(mini_plant)
    io, rtls, labeled = _samples(mini_plant)
    return analyze_dynamics(io, rtls, labeled, kinds, types, project.name, DynamicsParams())


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
    def test_cluster_mode_produces_partition(self, mini_plant):
        project, kinds, types = _tag_maps(mini_plant)
        io, rtls, _ = _samples(mini_plant)
        from plantrecon.clustering import KMeansParams

        result = analyze_dynamics(
            io,
            rtls,
            EMPTY_TRACE,
            kinds,
            types,
            project.name,
            DynamicsParams(mode="cluster", cluster=KMeansParams(k=2, seed=1)),
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
    def test_empty_rtls_trace_warns(self, mini_plant, caplog):
        project, kinds, types = _tag_maps(mini_plant)
        io, _, labeled = _samples(mini_plant)
        with caplog.at_level(logging.WARNING, logger="plantrecon.dynamics"):
            result = analyze_dynamics(io, EMPTY_TRACE, labeled, kinds, types, project.name)
        assert result.assignments == {}
        warnings = _dynamics_warnings(caplog)
        assert len(warnings) == 1
        assert "RTLS trace is empty" in warnings[0].getMessage()

    def test_undeclared_io_tags_warn_once(self, mini_plant, caplog):
        project, kinds, types = _tag_maps(mini_plant)
        _, rtls, labeled = _samples(mini_plant)
        io = IoTrace.from_rows(mini_plant.io_rows + [(1000, f"X_{i}", 1.0) for i in range(7)])
        with caplog.at_level(logging.WARNING, logger="plantrecon.dynamics"):
            result = analyze_dynamics(io, rtls, labeled, kinds, types, project.name)
        assert result.assignments == mini_plant.ground_truth.physical_partition
        warnings = _dynamics_warnings(caplog)
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        assert "7 IO tag(s) not declared by the PLC" in message
        assert "X_0, X_1, X_2, X_3, X_4, ..." in message
        assert "X_5" not in message

    def test_clean_inputs_do_not_warn(self, mini_plant, caplog):
        project, kinds, types = _tag_maps(mini_plant)
        io, rtls, labeled = _samples(mini_plant)
        with caplog.at_level(logging.WARNING, logger="plantrecon.dynamics"):
            analyze_dynamics(io, rtls, labeled, kinds, types, project.name)
        assert _dynamics_warnings(caplog) == []


    @pytest.mark.parametrize("which", ["io", "rtls"])
    def test_timestamp_beyond_bound_raises(self, mini_plant, which):
        project, kinds, types = _tag_maps(mini_plant)
        io, rtls, labeled = _samples(mini_plant)
        _, tag, value = mini_plant.io_rows[-1]
        with pytest.raises(TraceError, match="below 2\\*\\*62 ms"):
            if which == "io":
                io = IoTrace.from_rows(mini_plant.io_rows + [(2**63 + 5, tag, 1.0 - value)])
            else:
                late = (2**63, "tray01", 0.0, 0.0, 0.0, None)
                rtls = RtlsTrace.from_rows(_unlabeled_rows(mini_plant) + [late])
            analyze_dynamics(io, rtls, labeled, kinds, types, project.name)


class TestBuildPhysicalGroups:
    def test_empty_assignments_no_groups(self):
        g = build_physical_groups({}, {}, {}, "P")
        assert g.query(kinds={NodeKind.PHYSICAL_GROUP}) == []

    def test_positions_written_only_for_known(self):
        estimates = {
            "s1": PositionEstimate("s1", (1.0, 2.0, 3.0), 9, EstimateStatus.KNOWN),
            "s2": PositionEstimate("s2", None, 1, EstimateStatus.UNKNOWN),
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
    def test_row_granularity_assignment_noise_free(self, reference_plant):
        project, kinds, types = _tag_maps(reference_plant)
        io, rtls, labeled = _samples(reference_plant)
        result = analyze_dynamics(io, rtls, labeled, kinds, types, project.name, DynamicsParams())
        truth = reference_plant.ground_truth.physical_partition
        known = [t for t, e in result.estimates.items() if e.status is EstimateStatus.KNOWN]
        # The offline panel never fires, so its tags must stay Unknown.
        offline = {t for t, z in truth.items() if z == "OFFLINE"}
        assert offline.isdisjoint(known)
        assert len(known) == 54
        correct = sum(1 for t in known if result.assignments.get(t) == truth[t])
        assert correct == len(known)

    def test_row_granularity_physical_groups(self, reference_plant):
        project, kinds, types = _tag_maps(reference_plant)
        io, rtls, labeled = _samples(reference_plant)
        result = analyze_dynamics(io, rtls, labeled, kinds, types, project.name, DynamicsParams())
        groups = {n.name for n in result.fragment.query(kinds={NodeKind.PHYSICAL_GROUP})}
        # Eight storage-row groups (2 levels x 4 rows) plus the unit zones.
        rows = {f"L{l}R{r}" for l in (1, 2) for r in (1, 2, 3, 4)}
        assert rows <= groups
        assert groups == set(reference_plant.ground_truth.zone_labels)
