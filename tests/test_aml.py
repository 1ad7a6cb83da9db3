import math
import random
import re
import xml.etree.ElementTree as ET

import pytest

from plantrecon import plc, synth
from plantrecon.aml import (
    MAX_CONTAINS_DEPTH,
    AmlError,
    AmlIdError,
    AmlSyntaxError,
    DanglingLinkError,
    Finding,
    InvalidGraphError,
    UnknownRoleError,
    export_aml,
    import_aml,
    validate_aml,
)
from plantrecon.graph import Edge, EdgeKind, Node, NodeKind, PropertyGraph
from plantrecon.grouping import functional_grouping
from plantrecon.mining import (
    DEFAULT_EXCLUDED_KINDS,
    mark_templates,
    mine,
    project_for_mining,
    select_templates,
)

from references import mine_frequent


@pytest.fixture(scope="module")
def marked_mini_aml(mini_functional):
    """The mini functional graph with its templates marked, exported."""
    graph = mini_functional.copy()
    view = project_for_mining(graph, DEFAULT_EXCLUDED_KINDS)
    patterns = mine(view, min_support=2, min_nodes=3, max_nodes=12)
    mark_templates(graph, select_templates(patterns))
    return export_aml(graph)


def _element_count(xml_bytes):
    root = ET.fromstring(xml_bytes)
    return sum(1 for _ in root.iter("InternalElement"))


def _link_count(xml_bytes):
    root = ET.fromstring(xml_bytes)
    return sum(1 for _ in root.iter("InternalLink"))


def _one_label_aml(key, value, text):
    """A one-sensor export whose label ``key = value`` is written as ``text``."""
    g = PropertyGraph()
    g.add_node(Node("SystemRoot:P", NodeKind.SYSTEM_ROOT, "P", {}))
    g.add_node(Node("Sensor:S", NodeKind.SENSOR, "S", {key: value}))
    g.add_edge(Edge(EdgeKind.CONTAINS, "SystemRoot:P", "Sensor:S"))
    xml_bytes = export_aml(g)
    written = f"<Value>{value}</Value>".encode()
    assert xml_bytes.count(written) == 1
    return xml_bytes.replace(written, f"<Value>{text}</Value>".encode())


class TestExport:
    def test_structural_accounting(self, mini_functional):
        xml_bytes = export_aml(mini_functional)
        assert _element_count(xml_bytes) == mini_functional.node_count
        non_contains = [
            e for e in mini_functional.edges() if e.kind is not EdgeKind.CONTAINS
        ]
        assert _link_count(xml_bytes) == len(non_contains)

    def test_missing_root_rejected(self):
        g = PropertyGraph()
        g.add_node(Node("Sensor:S", NodeKind.SENSOR, "S", {}))
        with pytest.raises(InvalidGraphError):
            export_aml(g)

    def test_deep_contains_chain_rejected(self, contains_chain):
        # ElementTree's indent and serializer recurse per level: past the
        # bound this would end in a RecursionError, not a data error.
        with pytest.raises(AmlError, match="deeper than"):
            export_aml(contains_chain(1200))

    def test_chain_at_depth_bound_round_trips(self, contains_chain):
        graph = contains_chain(MAX_CONTAINS_DEPTH)
        back = import_aml(export_aml(graph))
        assert {e.triple for e in back.edges()} == {e.triple for e in graph.edges()}

    def test_template_mapping(self, mini_functional):
        graph = mini_functional.copy()
        view = project_for_mining(
            graph,
            frozenset({NodeKind.PLC, NodeKind.IO_DEVICE, NodeKind.CHANNEL,
                       NodeKind.DATA_BLOCK, NodeKind.FUNCTION_BLOCK_TYPE}),
        )
        templates = select_templates(mine_frequent(view, min_support=2, min_nodes=3, max_nodes=12))
        mark_templates(graph, templates)
        xml_bytes = export_aml(graph)
        root = ET.fromstring(xml_bytes)
        sucs = list(root.iter("SystemUnitClass"))
        assert len(sucs) == len(templates)
        refs = [
            e.get("RefBaseSystemUnitPath")
            for e in root.iter("InternalElement")
            if e.get("RefBaseSystemUnitPath")
        ]
        instance_count = len(graph.query(kinds={NodeKind.TEMPLATE_INSTANCE}))
        assert len(refs) == instance_count
        assert all(r.startswith("TemplateLibrary/") for r in refs)

    def test_export_deterministic(self, mini_functional):
        assert export_aml(mini_functional) == export_aml(mini_functional.copy())


class TestImportRoundTrip:
    def test_mini_round_trip(self, mini_functional):
        xml_bytes = export_aml(mini_functional)
        back = import_aml(xml_bytes)
        assert back.node_count == mini_functional.node_count
        assert back.edge_count == mini_functional.edge_count
        for node in mini_functional.nodes():
            other = back.node(node.id)
            assert other.kind is node.kind
            assert other.name == node.name
            assert other.labels == node.labels
        assert {e.triple for e in back.edges()} == {
            e.triple for e in mini_functional.edges()
        }

    def test_label_types_preserved(self):
        g = PropertyGraph()
        g.add_node(Node("SystemRoot:P", NodeKind.SYSTEM_ROOT, "P", {}))
        g.add_node(
            Node(
                "Sensor:S",
                NodeKind.SENSOR,
                "S",
                {"position.x": 1.5, "channelIndex": 3, "domain": "electric", "flag": True},
            )
        )
        g.add_edge(Edge(EdgeKind.CONTAINS, "SystemRoot:P", "Sensor:S"))
        back = import_aml(export_aml(g))
        labels = back.node("Sensor:S").labels
        assert labels == {"position.x": 1.5, "channelIndex": 3, "domain": "electric", "flag": True}
        assert isinstance(labels["position.x"], float)
        assert isinstance(labels["channelIndex"], int)
        assert isinstance(labels["flag"], bool)

    @pytest.mark.parametrize(
        ("text", "value"), [("true", True), ("1", True), ("false", False), ("0", False), ("yes", None)]
    )
    def test_boolean_lexical_forms(self, text, value):
        # xs:boolean is written true/false and may be read as 1/0 too; any
        # other text is a syntax finding, not False.
        g = PropertyGraph()
        g.add_node(Node("SystemRoot:P", NodeKind.SYSTEM_ROOT, "P", {}))
        g.add_node(Node("Sensor:S", NodeKind.SENSOR, "S", {"shared": True}))
        g.add_edge(Edge(EdgeKind.CONTAINS, "SystemRoot:P", "Sensor:S"))
        xml_bytes = export_aml(g).replace(b"<Value>true</Value>", f"<Value>{text}</Value>".encode())
        if value is None:
            findings = validate_aml(xml_bytes)
            assert [f.code for f in findings] == ["syntax"]
            assert "invalid xs:boolean 'yes'" in findings[0].message
        else:
            assert import_aml(xml_bytes).node("Sensor:S").labels == {"shared": value}

    @pytest.mark.parametrize(
        ("key", "value", "text", "parsed"),
        [
            ("channelIndex", 3, " +12\n", 12),
            ("channelIndex", 3, "-0", 0),
            ("gain", 1.5, "-1E3", -1000.0),
            ("gain", 1.5, " .5 ", 0.5),
            ("gain", 1.5, "7.", 7.0),
            ("gain", 1.5, "INF", math.inf),
            ("gain", 1.5, "-INF", -math.inf),
        ],
    )
    def test_numeric_lexical_forms(self, key, value, text, parsed):
        xml_bytes = _one_label_aml(key, value, text)
        labels = import_aml(xml_bytes).node("Sensor:S").labels
        assert labels == {key: parsed}
        assert type(labels[key]) is type(value)

    @pytest.mark.parametrize(
        ("key", "value", "text", "dtype"),
        [
            ("channelIndex", 3, "1_0", "xs:integer"),
            ("channelIndex", 3, "\u0661\u0662", "xs:integer"),
            ("channelIndex", 3, "1.0", "xs:integer"),
            ("gain", 1.5, "nan", "xs:double"),
            ("gain", 1.5, "inf", "xs:double"),
            ("gain", 1.5, "+INF", "xs:double"),
            ("gain", 1.5, "1_0.5", "xs:double"),
        ],
        ids=["underscore", "arabic-indic", "decimal", "nan", "inf", "plus-inf", "underscore-double"],
    )
    def test_non_schema_numeric_forms_are_syntax_findings(self, key, value, text, dtype):
        # int() and float() accept these, XML Schema does not.
        findings = validate_aml(_one_label_aml(key, value, text))
        assert [f.code for f in findings] == ["syntax"]
        assert f"invalid {dtype} {text!r}" in findings[0].message

    def test_non_finite_double_round_trips(self):
        g = PropertyGraph()
        g.add_node(Node("SystemRoot:P", NodeKind.SYSTEM_ROOT, "P", {}))
        labels = {"gain": math.inf, "offset": -math.inf, "drift": math.nan}
        g.add_node(Node("Sensor:S", NodeKind.SENSOR, "S", labels))
        g.add_edge(Edge(EdgeKind.CONTAINS, "SystemRoot:P", "Sensor:S"))
        xml_bytes = export_aml(g)
        for text in (b"INF", b"-INF", b"NaN"):
            assert b"<Value>" + text + b"</Value>" in xml_bytes
        assert validate_aml(xml_bytes) == []
        back = import_aml(xml_bytes).node("Sensor:S").labels
        assert back["gain"] == math.inf and back["offset"] == -math.inf
        assert math.isnan(back["drift"])

    def test_edge_labels_preserved(self):
        g = PropertyGraph()
        g.add_node(Node("SystemRoot:P", NodeKind.SYSTEM_ROOT, "P", {}))
        g.add_node(Node("Sensor:S", NodeKind.SENSOR, "S", {}))
        g.add_node(Node("PhysicalGroup:Z", NodeKind.PHYSICAL_GROUP, "Z", {}))
        g.add_edge(Edge(EdgeKind.CONTAINS, "SystemRoot:P", "Sensor:S"))
        g.add_edge(Edge(EdgeKind.CONTAINS, "SystemRoot:P", "PhysicalGroup:Z"))
        g.add_edge(
            Edge(EdgeKind.MEMBER_OF_PHYSICAL, "Sensor:S", "PhysicalGroup:Z", {"confidence": 0.75})
        )
        back = import_aml(export_aml(g))
        edge = back.out_edges("Sensor:S", EdgeKind.MEMBER_OF_PHYSICAL)[0]
        assert edge.labels == {"confidence": 0.75}

    def test_dangling_link(self, mini_functional):
        xml_bytes = export_aml(mini_functional)
        text = xml_bytes.decode()
        # Point one link side at a non-existent interface id.
        text = text.replace('RefPartnerSideA="Reads:', 'RefPartnerSideA="Ghost:', 1)
        with pytest.raises(DanglingLinkError):
            import_aml(text.encode())

    def test_unknown_role(self, mini_functional):
        xml_bytes = export_aml(mini_functional)
        text = xml_bytes.decode().replace(
            'RefBaseRoleClassPath="PlantReconRoleLib/Sensor"',
            'RefBaseRoleClassPath="SomeVendorLib/Sensor"',
        )
        with pytest.raises(UnknownRoleError):
            import_aml(text.encode())

    @pytest.mark.parametrize("stated_kind", [None, "Actuator"], ids=["own-kind", "other-kind"])
    def test_node_kind_attribute_ignored(self, marked_mini_aml, stated_kind):
        # Older exports also stated each element's kind in a nodeKind
        # Attribute; the RoleRequirements path alone gives the kind.
        root = ET.fromstring(marked_mini_aml)
        elements = list(root.iter("InternalElement"))
        assert not any(a.get("Name") == "nodeKind" for e in elements for a in e.findall("Attribute"))
        for elem in elements:
            role = elem.find("RoleRequirements").get("RefBaseRoleClassPath")
            attr = ET.Element("Attribute", Name="nodeKind", AttributeDataType="xs:string")
            ET.SubElement(attr, "Value").text = stated_kind or role.rsplit("/", 1)[1]
            elem.insert(0, attr)
        older = ET.tostring(root, encoding="utf-8", xml_declaration=True)
        assert import_aml(older) == import_aml(marked_mini_aml)

    def test_syntax_error(self):
        with pytest.raises(AmlSyntaxError):
            import_aml(b"<CAEXFile><broken")

    def test_deep_nesting_rejected(self):
        depth = 1200
        opening = "".join(
            f'<InternalElement Name="G{k}" ID="G{k}">'
            '<RoleRequirements RefBaseRoleClassPath="PlantReconRoleLib/FunctionalGroup"/>'
            for k in range(depth)
        )
        text = (
            f'<CAEXFile><InstanceHierarchy Name="P">{opening}'
            f'{"</InternalElement>" * depth}</InstanceHierarchy></CAEXFile>'
        )
        with pytest.raises(AmlSyntaxError, match="deeper than"):
            import_aml(text.encode())

    def test_round_trip_random_generator_graphs(self):
        rng = random.Random(2024)
        for _ in range(10):
            spec = synth.PlantSpec(
                levels=rng.randint(1, 2),
                rows_per_level=rng.randint(1, 3),
                places_per_row=rng.randint(1, 3),
                sim_duration_s=200.0,
                seed=rng.randint(0, 999),
            )
            plant = synth.generate(spec)
            project = plc.parse_project(plant.plc_xml)
            graph = functional_grouping(project, plc.build_call_tree(project))
            back = import_aml(export_aml(graph))
            assert back.node_count == graph.node_count
            assert {e.triple for e in back.edges()} == {e.triple for e in graph.edges()}
            for node in graph.nodes():
                other = back.node(node.id)
                assert (other.kind, other.name, other.labels) == (
                    node.kind,
                    node.name,
                    node.labels,
                )


class TestValidate:
    def test_fresh_export_clean(self, mini_functional):
        assert validate_aml(export_aml(mini_functional)) == []

    def test_duplicate_id_found(self, mini_functional):
        xml_bytes = export_aml(mini_functional)
        text = xml_bytes.decode()
        # Duplicate one element ID.
        text = text.replace('ID="Sensor:S_occ_1_1"', 'ID="Sensor:S_occ_1_2"', 1)
        findings = validate_aml(text.encode())
        assert any(f.code == "id" for f in findings)

    def test_empty_file_is_syntax_finding(self):
        findings = validate_aml(b"")
        assert len(findings) == 1
        assert findings[0].code == "syntax"

    def test_unresolved_link_found(self, mini_functional):
        xml_bytes = export_aml(mini_functional)
        text = xml_bytes.decode().replace('RefPartnerSideA="Reads:', 'RefPartnerSideA="Ghost:', 1)
        findings = validate_aml(text.encode())
        assert any(f.code == "link" for f in findings)

    @pytest.mark.parametrize(
        "pattern, repl, error, code",
        [
            (r"<Value>PlcAnalysis</Value>", "<Value>Nope</Value>", AmlSyntaxError, "syntax"),
            (r'(channelIndex" AttributeDataType="xs:integer">\s*<Value>)', r"\1x",
             AmlSyntaxError, "syntax"),
            (r'(label:support" AttributeDataType="xs:integer">\s*<Value>)', r"\1x",
             AmlSyntaxError, "syntax"),
            (r"encoding=.utf-8.", 'encoding="Atf-8"', AmlSyntaxError, "syntax"),
            (r"<InstanceHierarchy ", "<InstanceHierarchy/><InstanceHierarchy ", AmlSyntaxError,
             "syntax"),
            (r'ID="Sensor:S_occ_1_1"', 'ID="Sensor:S_occ_1_2"', AmlIdError, "id"),
            (r'(ID="TypedBy:SoftwareComponent:DB_Place_1_)2', r"\g<1>1", AmlIdError, "id"),
            (r' ID="Actuator:A_eject_1_1"', "", AmlIdError, "id"),
            (r'RefPartnerSideA="Reads:', 'RefPartnerSideA="Ghost:', DanglingLinkError, "link"),
            (r'RefBaseSystemUnitPath="TemplateLibrary/', 'RefBaseSystemUnitPath="Elsewhere/',
             DanglingLinkError, "link"),
            (r'RefBaseRoleClassPath="PlantReconRoleLib/Sensor"',
             'RefBaseRoleClassPath="SomeVendorLib/Sensor"', UnknownRoleError, "role"),
        ],
        ids=["provenance", "integer", "library-integer", "encoding",
             "two-hierarchies", "duplicate-id", "duplicate-interface-id", "missing-id",
             "unresolved-link", "unknown-system-unit-class", "unknown-role"],
    )
    def test_finding_is_the_import_error(self, marked_mini_aml, pattern, repl, error, code):
        text, count = re.subn(pattern, repl, marked_mini_aml.decode(), count=1)
        assert count == 1
        with pytest.raises(error) as info:
            import_aml(text.encode())
        assert validate_aml(text.encode()) == [Finding(code, str(info.value))]
