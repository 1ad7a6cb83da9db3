import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantrecon.graph import (
    DuplicateIdError,
    Edge,
    EdgeKind,
    HierarchyCycleError,
    KindViolationError,
    MalformedRecordError,
    MissingEndpointError,
    ConflictingKindError,
    Node,
    NodeKind,
    PropertyGraph,
    Provenance,
    load_graph,
    lowest_common_ancestor,
    merge,
    node_id,
    save_graph,
)


def _node(kind, name, **labels):
    return Node(node_id(kind, name), kind, name, labels, Provenance.GENERATOR)


def _basic_graph():
    g = PropertyGraph()
    g.add_node(_node(NodeKind.SYSTEM_ROOT, "Plant"))
    g.add_node(_node(NodeKind.FUNCTIONAL_GROUP, "G1"))
    g.add_node(_node(NodeKind.SOFTWARE_COMPONENT, "SC1"))
    g.add_node(_node(NodeKind.SENSOR, "S1"))
    g.add_node(_node(NodeKind.ACTUATOR, "A1"))
    g.add_edge(Edge(EdgeKind.CONTAINS, "SystemRoot:Plant", "FunctionalGroup:G1"))
    g.add_edge(Edge(EdgeKind.CONTAINS, "FunctionalGroup:G1", "SoftwareComponent:SC1"))
    g.add_edge(Edge(EdgeKind.CONTAINS, "FunctionalGroup:G1", "Sensor:S1"))
    g.add_edge(Edge(EdgeKind.CONTAINS, "FunctionalGroup:G1", "Actuator:A1"))
    g.add_edge(Edge(EdgeKind.READS, "SoftwareComponent:SC1", "Sensor:S1"))
    return g


class TestAddNode:
    def test_empty_plus_root(self):
        g = PropertyGraph()
        g.add_node(_node(NodeKind.SYSTEM_ROOT, "Plant"))
        assert g.node_count == 1

    def test_duplicate_id_rejected(self):
        g = PropertyGraph()
        g.add_node(_node(NodeKind.SENSOR, "S1"))
        with pytest.raises(DuplicateIdError):
            g.add_node(_node(NodeKind.SENSOR, "S1"))

    def test_reference_field_device_count(self, reference_plant):
        # 35 sensors and 25 actuators means 60 field-device nodes.
        assert reference_plant.ground_truth.counts["sensors"] == 35
        assert reference_plant.ground_truth.counts["actuators"] == 25
        g = PropertyGraph()
        for i, tag in enumerate(sorted(reference_plant.ground_truth.true_positions)):
            kind = NodeKind.SENSOR if tag.startswith("S_") else NodeKind.ACTUATOR
            g.add_node(_node(kind, tag))
        assert g.node_count == 60

    def test_add_does_not_touch_other_content(self):
        g = _basic_graph()
        before_nodes = {n.id for n in g.nodes()}
        before_edges = {e.id for e in g.edges()}
        g.add_node(_node(NodeKind.SENSOR, "S2"))
        assert {n.id for n in g.nodes()} == before_nodes | {"Sensor:S2"}
        assert {e.id for e in g.edges()} == before_edges

    def test_empty_name_rejected(self):
        g = PropertyGraph()
        with pytest.raises(KindViolationError):
            g.add_node(Node("Sensor:x", NodeKind.SENSOR, "", {}))

    def test_reserved_label_type_enforced(self):
        g = PropertyGraph()
        with pytest.raises(KindViolationError):
            g.add_node(_node(NodeKind.SENSOR, "S1", **{"position.x": "not-a-float"}))


class TestAddEdge:
    def test_contains_cycle_rejected(self):
        g = PropertyGraph()
        g.add_node(_node(NodeKind.FUNCTIONAL_GROUP, "A"))
        g.add_node(_node(NodeKind.FUNCTIONAL_GROUP, "B"))
        g.add_edge(Edge(EdgeKind.CONTAINS, "FunctionalGroup:A", "FunctionalGroup:B"))
        with pytest.raises(HierarchyCycleError):
            g.add_edge(Edge(EdgeKind.CONTAINS, "FunctionalGroup:B", "FunctionalGroup:A"))

    def test_second_parent_rejected(self):
        g = PropertyGraph()
        for name in ("A", "B", "C"):
            g.add_node(_node(NodeKind.FUNCTIONAL_GROUP, name))
        g.add_edge(Edge(EdgeKind.CONTAINS, "FunctionalGroup:A", "FunctionalGroup:C"))
        with pytest.raises(HierarchyCycleError):
            g.add_edge(Edge(EdgeKind.CONTAINS, "FunctionalGroup:B", "FunctionalGroup:C"))

    def test_reads_sensor_to_sensor_rejected(self):
        g = PropertyGraph()
        g.add_node(_node(NodeKind.SENSOR, "S1"))
        g.add_node(_node(NodeKind.SENSOR, "S2"))
        with pytest.raises(KindViolationError):
            g.add_edge(Edge(EdgeKind.READS, "Sensor:S1", "Sensor:S2"))

    def test_valid_reads_accepted(self):
        g = PropertyGraph()
        g.add_node(_node(NodeKind.SOFTWARE_COMPONENT, "SC"))
        g.add_node(_node(NodeKind.SENSOR, "S1"))
        g.add_edge(Edge(EdgeKind.READS, "SoftwareComponent:SC", "Sensor:S1"))
        assert g.edge_count == 1

    def test_missing_endpoint(self):
        g = PropertyGraph()
        g.add_node(_node(NodeKind.SENSOR, "S1"))
        with pytest.raises(MissingEndpointError):
            g.add_edge(Edge(EdgeKind.WIRED_TO, "Sensor:S1", "Channel:nope"))

    def test_duplicate_triple_rejected(self):
        g = _basic_graph()
        with pytest.raises(DuplicateIdError):
            g.add_edge(Edge(EdgeKind.READS, "SoftwareComponent:SC1", "Sensor:S1"))


class TestQuery:
    def test_by_kind(self, mini_functional):
        assert len(mini_functional.query(kinds={NodeKind.SENSOR})) == 2

    def test_label_present_empty_before_mining(self, mini_functional):
        assert [n for n in mini_functional.nodes() if "templateId" in n.labels] == []

    def test_deterministic_order(self):
        g = _basic_graph()
        ids = [n.id for n in g.query()]
        assert ids == sorted(ids)


class TestMerge:
    def test_merge_with_empty_is_identity(self):
        g = _basic_graph()
        assert merge(g, PropertyGraph()) == g

    def test_merge_idempotent(self):
        g = _basic_graph()
        assert merge(g, g) == g

    def test_conflicting_kind(self):
        a = PropertyGraph()
        a.add_node(Node("X:1", NodeKind.SENSOR, "x", {}))
        b = PropertyGraph()
        b.add_node(Node("X:1", NodeKind.ACTUATOR, "x", {}))
        with pytest.raises(ConflictingKindError):
            merge(a, b)

    def test_overlay_label_precedence(self):
        a = PropertyGraph()
        a.add_node(Node("Sensor:S", NodeKind.SENSOR, "S", {"domain": "electric", "a": 1}))
        b = PropertyGraph()
        b.add_node(Node("Sensor:S", NodeKind.SENSOR, "S", {"a": 2, "b": 3}))
        m = merge(a, b)
        assert m.node("Sensor:S").labels == {"domain": "electric", "a": 2, "b": 3}

    def test_associative_with_disjoint_label_keys(self):
        def frag(key):
            g = PropertyGraph()
            g.add_node(Node("Sensor:S", NodeKind.SENSOR, "S", {key: 1}))
            return g

        a, b, c = frag("ka"), frag("kb"), frag("kc")
        assert merge(merge(a, b), c) == merge(a, merge(b, c))


class TestPersistence:
    def test_round_trip(self, tmp_path, mini_functional):
        path = tmp_path / "g.dtgraph"
        save_graph(mini_functional, path)
        assert load_graph(path) == mini_functional

    def test_edge_records_store_no_id(self, tmp_path, mini_functional):
        path = tmp_path / "g.dtgraph"
        save_graph(mini_functional, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        edges = [r for r in records if r["recordType"] == "edge"]
        assert len(edges) == mini_functional.edge_count
        assert all(set(r) == {"recordType", "kind", "source", "target", "labels"} for r in edges)

    def test_edge_records_with_their_ids_load(self, tmp_path, mini_functional):
        # Older files also stored each edge's derived id in its record.
        path = tmp_path / "g.dtgraph"
        save_graph(mini_functional, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for r in records:
            if r["recordType"] == "edge":
                r["id"] = f"{r['kind']}:{r['source']}->{r['target']}"
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        assert load_graph(path) == mini_functional

    def test_round_trip_record_order_independent(self, tmp_path):
        g = _basic_graph()
        path = tmp_path / "g.dtgraph"
        save_graph(g, path)
        lines = path.read_text().strip().splitlines()
        path.write_text("\n".join(reversed(lines)) + "\n")
        assert load_graph(path) == g

    def test_truncated_record(self, tmp_path):
        g = _basic_graph()
        path = tmp_path / "g.dtgraph"
        save_graph(g, path)
        content = path.read_text()
        path.write_text(content[:-20])
        with pytest.raises(MalformedRecordError) as info:
            load_graph(path)
        assert info.value.line > 0

    def test_empty_graph_round_trip(self, tmp_path):
        path = tmp_path / "empty.dtgraph"
        save_graph(PropertyGraph(), path)
        assert path.read_text() == ""
        assert load_graph(path) == PropertyGraph()

    def test_unknown_record_type(self, tmp_path):
        path = tmp_path / "bad.dtgraph"
        path.write_text('{"recordType": "blob"}\n')
        with pytest.raises(MalformedRecordError):
            load_graph(path)


class TestValidateAndHelpers:
    def test_final_validation_requires_single_root(self):
        g = _basic_graph()
        assert g.validate() == []
        g.add_node(_node(NodeKind.SYSTEM_ROOT, "Second"))
        assert any("SystemRoot" in f for f in g.validate())

    def test_unreachable_node_reported(self):
        g = _basic_graph()
        g.add_node(_node(NodeKind.SENSOR, "orphan"))
        findings = g.validate()
        assert any("orphan" in f for f in findings)

    def test_lowest_common_ancestor(self):
        g = _basic_graph()
        assert (
            lowest_common_ancestor(g, ["Sensor:S1", "Actuator:A1"])
            == "FunctionalGroup:G1"
        )
        assert (
            lowest_common_ancestor(g, ["Sensor:S1", "FunctionalGroup:G1"])
            == "FunctionalGroup:G1"
        )


_label_values = st.one_of(
    st.text(max_size=8),
    st.integers(min_value=-1000, max_value=1000),
    st.booleans(),
)


@settings(max_examples=50, deadline=None)
@given(
    labels_a=st.dictionaries(st.sampled_from(["k1", "k2", "k3"]), _label_values, max_size=3),
    labels_b=st.dictionaries(st.sampled_from(["k4", "k5", "k6"]), _label_values, max_size=3),
    labels_c=st.dictionaries(st.sampled_from(["k7", "k8"]), _label_values, max_size=2),
)
def test_merge_associative_property(labels_a, labels_b, labels_c):
    def frag(labels):
        g = PropertyGraph()
        g.add_node(Node("Sensor:S", NodeKind.SENSOR, "S", dict(labels)))
        return g

    a, b, c = frag(labels_a), frag(labels_b), frag(labels_c)
    assert merge(merge(a, b), c) == merge(a, merge(b, c))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_save_load_round_trip_random_graphs(seed, tmp_path_factory):
    import random

    rng = random.Random(seed)
    g = PropertyGraph()
    g.add_node(_node(NodeKind.SYSTEM_ROOT, "R"))
    names = [f"n{i}" for i in range(rng.randint(1, 12))]
    for i, name in enumerate(names):
        g.add_node(
            _node(
                NodeKind.FUNCTIONAL_GROUP,
                name,
                depth=rng.randint(0, 5),
                note=f"x{rng.randint(0, 9)}",
            )
        )
        earlier = names[:i]
        if earlier and rng.random() >= 0.5:
            parent = f"FunctionalGroup:{rng.choice(earlier)}"
        else:
            parent = "SystemRoot:R"
        g.add_edge(Edge(EdgeKind.CONTAINS, parent, f"FunctionalGroup:{name}"))
    path = tmp_path_factory.mktemp("roundtrip") / "g.dtgraph"
    save_graph(g, path)
    assert load_graph(path) == g
