import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from plantrecon.cli import main
from plantrecon.config import write_kv_file
from plantrecon.graph import EdgeKind, NodeKind, load_graph
from plantrecon.grouping import functional_grouping
from plantrecon.plc import build_call_tree, parse_project

from references import call_tree_shape, group_tree_shape
from test_plc import MINI_LIKE_XML


@pytest.fixture()
def mini_like():
    project = parse_project(MINI_LIKE_XML)
    tree = build_call_tree(project)
    return project, tree, functional_grouping(project, tree)


class TestGroupStructure:
    def test_place_groups_contain_their_devices(self, mini_like):
        _, _, g = mini_like
        p11 = "FunctionalGroup:Mini/DB_Place_1_1"
        children = set(g.contains_children(p11))
        assert "Sensor:S_occ_1_1" in children
        assert "Actuator:A_eject_1_1" in children
        p12 = "FunctionalGroup:Mini/DB_Place_1_2"
        children = set(g.contains_children(p12))
        assert "Sensor:S_occ_1_2" in children
        assert "Actuator:A_eject_1_2" in children

    def test_row_contains_both_place_groups(self, mini_like):
        _, _, g = mini_like
        row = "FunctionalGroup:Mini/DB_Row_1"
        children = set(g.contains_children(row))
        assert "FunctionalGroup:Mini/DB_Place_1_1" in children
        assert "FunctionalGroup:Mini/DB_Place_1_2" in children

    def test_every_field_device_has_one_parent_and_an_access_edge(self, mini_like):
        _, _, g = mini_like
        for node in g.query(kinds={NodeKind.SENSOR, NodeKind.ACTUATOR}):
            assert g.contains_parent(node.id) is not None
            in_kinds = {e.kind for e in g.in_edges(node.id)}
            assert EdgeKind.READS in in_kinds or EdgeKind.WRITES in in_kinds

    def test_group_tree_isomorphic_to_call_tree(self, mini_like):
        project, tree, g = mini_like
        top = f"FunctionalGroup:{project.name}"
        assert group_tree_shape(g, top) == call_tree_shape(tree)

    def test_final_graph_invariants_hold(self, mini_like):
        _, _, g = mini_like
        assert g.validate() == []

    def test_software_component_wiring(self, mini_like):
        _, _, g = mini_like
        sc = "SoftwareComponent:DB_Place_1_1"
        out = {(e.kind, e.target) for e in g.out_edges(sc)}
        assert (EdgeKind.READS, "Sensor:S_occ_1_1") in out
        assert (EdgeKind.WRITES, "Actuator:A_eject_1_1") in out
        assert (EdgeKind.TYPED_BY, "FunctionBlockType:FB_Place") in out
        assert (EdgeKind.BACKED_BY, "DataBlock:DB_Place_1_1") in out

    def test_calls_edges_mirror_call_graph(self, mini_like):
        _, _, g = mini_like
        assert g.has_edge(
            EdgeKind.CALLS, "SoftwareComponent:OB1", "SoftwareComponent:DB_Row_1"
        )
        assert g.has_edge(
            EdgeKind.CALLS,
            "SoftwareComponent:DB_Row_1",
            "SoftwareComponent:DB_Place_1_1",
        )

    def test_hardware_chain(self, mini_like):
        _, _, g = mini_like
        assert g.contains_parent("IoDevice:DI1") == "Plc:PLC1"
        assert g.contains_parent("Channel:DI1/0") == "IoDevice:DI1"
        assert g.has_edge(EdgeKind.WIRED_TO, "Sensor:S_occ_1_1", "Channel:DI1/0")


class TestR4Placement:
    def test_tag_read_by_both_places_goes_to_row(self):
        xml = MINI_LIKE_XML.replace(
            '<TagAccess tag="S_occ_1_1" mode="Read"/>',
            '<TagAccess tag="S_occ_1_1" mode="Read"/><TagAccess tag="S_occ_1_2" mode="Read"/>',
        )
        project = parse_project(xml)
        tree = build_call_tree(project)
        g = functional_grouping(project, tree)
        # S_occ_1_2 is now read by both place instances: LCA is the row group.
        assert g.contains_parent("Sensor:S_occ_1_2") == "FunctionalGroup:Mini/DB_Row_1"

    def test_unaccessed_tag_attaches_to_top_group(self):
        xml = MINI_LIKE_XML.replace(
            '<TagAccess tag="A_eject_1_2" mode="Write"/>', ""
        )
        project = parse_project(xml)
        g = functional_grouping(project, build_call_tree(project))
        assert g.contains_parent("Actuator:A_eject_1_2") == "FunctionalGroup:Mini"

    def test_shared_instance_group_placed_at_lca(self):
        xml = MINI_LIKE_XML.replace(
            "<OrganizationBlock name=\"OB1\">\n      <Call callee=\"FB_Row\" instanceDb=\"DB_Row_1\"/>\n    </OrganizationBlock>",
            "<OrganizationBlock name=\"OB1\">\n      <Call callee=\"FB_Row\" instanceDb=\"DB_Row_1\"/>\n    </OrganizationBlock>"
            "<OrganizationBlock name=\"OB2\">\n      <Call callee=\"FB_Row\" instanceDb=\"DB_Row_1\"/>\n    </OrganizationBlock>",
        )
        project = parse_project(xml)
        tree = build_call_tree(project)
        g = functional_grouping(project, tree)
        # Shared between OB1 and OB2: lands under their LCA, the top group.
        assert g.contains_parent("FunctionalGroup:Mini/DB_Row_1") == "FunctionalGroup:Mini"


class TestR5Placement:
    def test_nested_shared_instance_placed_at_lca(self):
        # Both place instances call DB_Helper (a type-scoped call), which
        # calls DB_Sub; DB_Orphan is never called.
        xml = MINI_LIKE_XML.replace(
            '<FunctionBlock name="FB_Place"/>',
            '<FunctionBlock name="FB_Place"><Call callee="FB_Helper" instanceDb="DB_Helper"/></FunctionBlock>'
            '<FunctionBlock name="FB_Helper"/><FunctionBlock name="FB_Sub"/>'
            '<DataBlock name="DB_Helper" ofType="FB_Helper"><Call callee="FB_Sub" instanceDb="DB_Sub"/></DataBlock>'
            '<DataBlock name="DB_Sub" ofType="FB_Sub"/><DataBlock name="DB_Orphan" ofType="FB_Sub"/>',
        )
        project = parse_project(xml)
        tree = build_call_tree(project)
        assert tree.parents["DB_Helper"] == ["DB_Place_1_1", "DB_Place_1_2"]
        g = functional_grouping(project, tree)
        helper = "FunctionalGroup:Mini/DB_Helper"
        assert g.contains_parent(helper) == "FunctionalGroup:Mini/DB_Row_1"
        assert g.contains_parent("FunctionalGroup:Mini/DB_Sub") == helper
        assert g.contains_parent("FunctionalGroup:Mini/DB_Orphan") == "FunctionalGroup:Mini"
        assert g.node("SoftwareComponent:DB_Helper").labels["shared"] is True
        assert group_tree_shape(g, "FunctionalGroup:Mini") == call_tree_shape(tree)


def _project_xml(project: str, obs: list[str], instances: list[str], calls, readers) -> str:
    """A project of OBs and instances of one FB type, with the given
    (caller, instance) calls and one tag read by ``readers``."""
    def block(tag: str, name: str, extra: str = "") -> str:
        body = "".join(f'<Call callee="FB" instanceDb="{i}"/>' for c, i in calls if c == name)
        if name in readers:
            body += '<TagAccess tag="S" mode="Read"/>'
        return f'<{tag} name="{name}"{extra}>{body}</{tag}>'

    blocks = [block("OrganizationBlock", n) for n in obs] + ['<FunctionBlock name="FB"/>']
    blocks += [block("DataBlock", n, ' ofType="FB"') for n in instances]
    return (
        f'<PlcProject name="{project}"><HardwareConfig>'
        '<Device id="PLC1" type="Plc" name="cpu" channels="0"/>'
        '<Device id="DI1" type="DigitalIn" name="in card" channels="8"/>'
        '</HardwareConfig><TagTable>'
        '<Tag name="S" dataType="Bool" address="%I0.0" device="DI1" channel="0"/>'
        f'</TagTable><Blocks>{"".join(blocks)}</Blocks></PlcProject>'
    )


def _check_group_ids(project, tree, g) -> None:
    """One FunctionalGroup per call node plus the top group, each named
    after its block, nested as R5 nests the call tree."""
    top = f"FunctionalGroup:{project.name}"
    groups = g.query(kinds={NodeKind.FUNCTIONAL_GROUP})
    assert len(groups) == len(tree.nodes) + 1
    assert g.node(top).name == project.name
    assert {n.id: n.name for n in groups if n.id != top} == {
        f"FunctionalGroup:{project.name}/{n}": n for n in tree.nodes
    }
    assert group_tree_shape(g, top) == call_tree_shape(tree)


class TestGroupIds:
    """A group's id is its project and block name, so no two ids collide,
    whatever the names."""

    @pytest.mark.parametrize(
        "project, obs, instances, calls",
        [
            # The project is named like its only OB.
            ("OB1", ["OB1"], [], []),
            # OB A calls instance B beside an OB named A/B.
            ("P", ["A", "A/B"], ["B"], [("A", "B")]),
        ],
        ids=["project-named-like-ob", "call-path-named-like-ob"],
    )
    def test_analyze_plc_runs(self, tmp_path, project, obs, instances, calls):
        xml = _project_xml(project, obs, instances, calls, readers=obs[:1])
        (tmp_path / "plc.xml").write_text(xml, encoding="utf-8")
        write_kv_file(tmp_path / "pipeline.conf", {"plc_xml": str(tmp_path / "plc.xml")})
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["--config", str(tmp_path / "pipeline.conf"), "--out-dir", str(out), "analyze-plc"]
        )
        assert result.exit_code == 0, result.output
        parsed = parse_project(xml)
        _check_group_ids(parsed, build_call_tree(parsed), load_graph(out / "functional.dtgraph"))

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_group_ids_are_distinct(self, data):
        # Names from a tiny alphabet with the separator, and a project
        # named like one of its blocks as often as not.
        names = data.draw(st.lists(st.text("AB/", min_size=1, max_size=3), min_size=1, max_size=7, unique=True))
        project = data.draw(st.sampled_from(names) | st.text("AB/", min_size=1, max_size=3))
        n_obs = data.draw(st.integers(1, len(names)))
        obs, instances = names[:n_obs], names[n_obs:]
        # Each instance is called by some of the call nodes listed before it,
        # so the calls form a DAG.
        calls = [
            (caller, inst)
            for k, inst in enumerate(instances)
            for caller in data.draw(st.sets(st.sampled_from(names[: n_obs + k]), max_size=3))
        ]
        readers = data.draw(st.sets(st.sampled_from(names), max_size=3))
        parsed = parse_project(_project_xml(project, obs, instances, calls, readers))
        tree = build_call_tree(parsed)
        _check_group_ids(parsed, tree, functional_grouping(parsed, tree))


class TestRenamingInvariance:
    def test_grouping_invariant_under_renames(self):
        renames = {
            "OB1": "Main",
            "FB_Row": "FB_Lane",
            "FB_Place": "FB_Slot",
            "DB_Row_1": "DB_Lane_A",
            "DB_Place_1_1": "DB_Slot_A",
            "DB_Place_1_2": "DB_Slot_B",
            "S_occ_1_1": "In_A",
            "S_occ_1_2": "In_B",
            "A_eject_1_1": "Out_A",
            "A_eject_1_2": "Out_B",
            "Mini": "Renamed",
        }
        xml = MINI_LIKE_XML
        for old, new in renames.items():
            xml = xml.replace(f'"{old}"', f'"{new}"')
        original = parse_project(MINI_LIKE_XML)
        renamed = parse_project(xml)
        g1 = functional_grouping(original, build_call_tree(original))
        g2 = functional_grouping(renamed, build_call_tree(renamed))
        assert g1.node_count == g2.node_count
        assert g1.edge_count == g2.edge_count
        # Same structure: kind histograms and per-kind edge histograms match.
        hist1 = sorted((n.kind.value, len(g1.out_edges(n.id))) for n in g1.nodes())
        hist2 = sorted((n.kind.value, len(g2.out_edges(n.id))) for n in g2.nodes())
        assert hist1 == hist2
        shape1 = group_tree_shape(g1, "FunctionalGroup:Mini")
        shape2 = group_tree_shape(g2, "FunctionalGroup:Renamed")
        assert shape1 == shape2


class TestPaperScaleGrouping:
    def test_all_field_devices_grouped(self, reference_plant):
        project = parse_project(reference_plant.plc_xml)
        tree = build_call_tree(project)
        g = functional_grouping(project, tree)
        sensors = g.query(kinds={NodeKind.SENSOR})
        actuators = g.query(kinds={NodeKind.ACTUATOR})
        assert len(sensors) == 35
        assert len(actuators) == 25
        for node in sensors + actuators:
            parent = g.contains_parent(node.id)
            assert parent is not None
            assert g.node(parent).kind is NodeKind.FUNCTIONAL_GROUP
        assert g.validate() == []

    def test_functional_partition_matches_ground_truth_exactly(self, reference_plant):
        project = parse_project(reference_plant.plc_xml)
        g = functional_grouping(project, build_call_tree(project))
        truth = reference_plant.ground_truth.functional_partition
        mined = {}
        for node in g.query(kinds={NodeKind.SENSOR, NodeKind.ACTUATOR}):
            mined[node.name] = g.contains_parent(node.id)
        assert set(mined) == set(truth)
        # Same partition: tags grouped together in truth share a parent.
        mined_groups = {frozenset(v) for v in _group_by_value(mined).values()}
        truth_groups = {frozenset(v) for v in _group_by_value(truth).values()}
        assert mined_groups == truth_groups


def _group_by_value(mapping):
    out = {}
    for k, v in mapping.items():
        out.setdefault(v, set()).add(k)
    return out
