"""AutomationML/CAEX-style serialization of the assembled graph.

The mapping is node-type-driven and fixed:

* the Contains tree becomes nested ``InternalElement`` elements inside a
  single ``InstanceHierarchy`` (document order = node id order);
* every node kind maps to a role-class path in :data:`ROLE_CLASS`,
  written as a ``RoleRequirements`` reference; import reads the kind back
  through its inverse :data:`KIND_OF_ROLE`;
* node labels become typed ``Attribute`` entries (``label:<key>``);
* every non-Contains edge becomes one ``InternalLink`` named after the
  edge kind, between two generated ``ExternalInterface`` endpoints (edge
  labels ride on the A-side interface);
* each TemplatePattern node additionally becomes a ``SystemUnitClass`` in
  the ``TemplateLibrary``; TemplateInstance elements reference their
  class path via ``RefBaseSystemUnitPath``.

All InternalLinks are attached to the top (SystemRoot) element. The
output is deliberately tool-neutral: it follows the CAEX shape but is not
validated against the official schema, and the role table is the
contract a retargeting effort would edit.

There is one reader, :func:`import_aml`. Its checks are the validation:
:func:`validate_aml` reports the reason it rejects a document, so a
document validates exactly when it imports.
"""

from __future__ import annotations

import io
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from .errors import DataError
from .graph import (
    Edge,
    EdgeKind,
    GraphError,
    LabelValue,
    Node,
    NodeKind,
    PropertyGraph,
    Provenance,
)

CAEX_SCHEMA_VERSION = "2.15"
PROFILE_VERSION = "1.0"
INSTANCE_HIERARCHY_NAME = "ReconstructedPlant"
ROLE_CLASS = {kind: f"PlantReconRoleLib/{kind.value}" for kind in NodeKind}
KIND_OF_ROLE = {path: kind for kind, path in ROLE_CLASS.items()}

# The deepest Contains nesting that export and import accept, with the
# SystemRoot at depth 0. The builder, the importer and ElementTree's
# ``indent`` and serializer all recurse once per nesting level, so the
# bound stays well under Python's default recursion limit of 1000.
MAX_CONTAINS_DEPTH = 500


class AmlError(DataError):
    code = "structure"  # the validate_aml finding code


class InvalidGraphError(AmlError):
    def __init__(self, findings: list[str]):
        super().__init__("; ".join(findings))


class AmlSyntaxError(AmlError):
    code = "syntax"


class AmlIdError(AmlError):
    code = "id"  # an element or interface ID is missing or repeated


class UnknownRoleError(AmlError):
    code = "role"


class DanglingLinkError(AmlError):
    code = "link"  # a link side or system unit class path names nothing


@dataclass
class Finding:
    code: str
    message: str


def _xs_double(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "INF" if value > 0 else "-INF"
    return repr(value)


def _attribute(parent: ET.Element, name: str, value: LabelValue) -> None:
    if isinstance(value, bool):
        dtype, text = "xs:boolean", "true" if value else "false"
    elif isinstance(value, int):
        dtype, text = "xs:integer", str(value)
    elif isinstance(value, float):
        dtype, text = "xs:double", _xs_double(value)
    else:
        dtype, text = "xs:string", str(value)
    attr = ET.SubElement(parent, "Attribute", Name=name, AttributeDataType=dtype)
    ET.SubElement(attr, "Value").text = text


# The XML Schema 1.0 lexical forms of xs:boolean, xs:integer and
# xs:double, read after stripping surrounding XML whitespace.
_XS_SPACE = " \t\n\r"
_XS_BOOLEAN = {"true": True, "1": True, "false": False, "0": False}
_XS_INTEGER = re.compile(r"[+-]?[0-9]+")
_XS_DOUBLE = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([Ee][+-]?[0-9]+)?|-?INF|NaN")


def _parse_attribute(elem: ET.Element) -> tuple[str, LabelValue]:
    name = elem.get("Name", "")
    dtype = elem.get("AttributeDataType", "xs:string")
    value_elem = elem.find("Value")
    text = value_elem.text if value_elem is not None and value_elem.text is not None else ""
    lexical = text.strip(_XS_SPACE)
    value: LabelValue
    if dtype == "xs:boolean":
        value = _XS_BOOLEAN.get(lexical)
        if value is None:
            raise ValueError(f"invalid xs:boolean {text!r}")
    elif dtype == "xs:integer":
        if not _XS_INTEGER.fullmatch(lexical):
            raise ValueError(f"invalid xs:integer {text!r}")
        value = int(lexical)
    elif dtype == "xs:double":
        if not _XS_DOUBLE.fullmatch(lexical):
            raise ValueError(f"invalid xs:double {text!r}")
        value = float(lexical)
    else:
        value = text
    return name, value


def build_aml_document(graph: PropertyGraph) -> ET.Element:
    """Assemble the CAEX document model for a final, valid graph."""
    findings = graph.validate()
    if findings:
        raise InvalidGraphError(findings)

    root_node = graph.system_roots()[0]
    caex = ET.Element(
        "CAEXFile",
        FileName=f"{root_node.name}.aml",
        SchemaVersion=CAEX_SCHEMA_VERSION,
        ProfileVersion=PROFILE_VERSION,
    )

    # Template patterns double as reusable unit classes.
    template_nodes = graph.query(kinds={NodeKind.TEMPLATE_PATTERN})
    if template_nodes:
        lib = ET.SubElement(caex, "SystemUnitClassLib", Name="TemplateLibrary")
        for tnode in template_nodes:
            suc = ET.SubElement(lib, "SystemUnitClass", Name=tnode.name, ID=f"suc:{tnode.id}")
            for key in sorted(tnode.labels):
                _attribute(suc, f"label:{key}", tnode.labels[key])

    hierarchy = ET.SubElement(caex, "InstanceHierarchy", Name=INSTANCE_HIERARCHY_NAME)

    iface_ids: dict[str, tuple[str, str]] = {}  # edge id -> (A iface id, B iface id)
    links: list[Edge] = []
    for edge in graph.edges():
        if edge.kind is not EdgeKind.CONTAINS:
            iface_ids[edge.id] = (f"{edge.id}:A", f"{edge.id}:B")
            links.append(edge)

    def element_for(node: Node, parent: ET.Element, depth: int) -> ET.Element:
        if depth > MAX_CONTAINS_DEPTH:
            raise InvalidGraphError(
                [f"Contains nesting deeper than {MAX_CONTAINS_DEPTH} levels at {node.id!r}"]
            )
        attrs = {"Name": node.name, "ID": node.id}
        if node.kind is NodeKind.TEMPLATE_INSTANCE:
            targets = [
                graph.node(e.target)
                for e in graph.out_edges(node.id, EdgeKind.INSTANCE_OF)
            ]
            if targets:
                attrs["RefBaseSystemUnitPath"] = f"TemplateLibrary/{targets[0].name}"
        elem = ET.SubElement(parent, "InternalElement", attrs)
        _attribute(elem, "provenance", node.provenance.value)
        for key in sorted(node.labels):
            _attribute(elem, f"label:{key}", node.labels[key])
        ET.SubElement(elem, "RoleRequirements", RefBaseRoleClassPath=ROLE_CLASS[node.kind])
        for counter, edge in enumerate(graph.out_edges(node.id)):
            if edge.kind is EdgeKind.CONTAINS:
                continue
            iface = ET.SubElement(
                elem,
                "ExternalInterface",
                Name=f"{edge.kind.value}_out_{counter}",
                ID=iface_ids[edge.id][0],
            )
            for key in sorted(edge.labels):
                _attribute(iface, f"label:{key}", edge.labels[key])
        for counter, edge in enumerate(graph.in_edges(node.id)):
            if edge.kind is EdgeKind.CONTAINS:
                continue
            ET.SubElement(
                elem,
                "ExternalInterface",
                Name=f"{edge.kind.value}_in_{counter}",
                ID=iface_ids[edge.id][1],
            )
        for child_id in graph.contains_children(node.id):
            element_for(graph.node(child_id), elem, depth + 1)
        return elem

    top = element_for(root_node, hierarchy, 0)
    for edge in links:
        a, b = iface_ids[edge.id]
        ET.SubElement(top, "InternalLink", Name=edge.kind.value, RefPartnerSideA=a, RefPartnerSideB=b)
    return caex


def export_aml(graph: PropertyGraph) -> bytes:
    """Serialize the graph as deterministic UTF-8 CAEX-style XML."""
    caex = build_aml_document(graph)
    tree = ET.ElementTree(caex)
    ET.indent(tree)
    buf = io.BytesIO()
    tree.write(buf, encoding="utf-8", xml_declaration=True)
    return buf.getvalue() + b"\n"


def import_aml(xml_bytes: bytes) -> PropertyGraph:
    """Rebuild a property graph from a document produced by export_aml;
    the first problem found raises an AmlError (or a GraphError)."""
    try:
        caex = ET.parse(io.BytesIO(xml_bytes)).getroot()
    except (ET.ParseError, LookupError, ValueError) as exc:  # or an unusable declared encoding
        raise AmlSyntaxError(str(exc)) from None
    if caex.tag != "CAEXFile":
        raise AmlSyntaxError("root element must be CAEXFile")

    suc_paths = {
        f"{lib.get('Name')}/{suc.get('Name')}"
        for lib in caex.iter("SystemUnitClassLib")
        for suc in lib.iter("SystemUnitClass")
    }
    graph = PropertyGraph()
    iface_owner: dict[str, str] = {}
    iface_labels: dict[str, dict[str, LabelValue]] = {}
    contains: list[tuple[str, str]] = []
    links: list[tuple[str, str, str]] = []

    def walk(elem: ET.Element, parent_id: str | None, depth: int) -> None:
        nid = elem.get("ID")
        name = elem.get("Name", "")
        if nid is None:
            raise AmlIdError(f"InternalElement {name!r} lacks an ID")
        if graph.has_node(nid):
            raise AmlIdError(f"duplicate ID {nid!r}")
        if depth > MAX_CONTAINS_DEPTH:
            raise AmlSyntaxError(
                f"InternalElement nesting deeper than {MAX_CONTAINS_DEPTH} levels at {nid!r}"
            )
        ref = elem.get("RefBaseSystemUnitPath")
        if ref is not None and ref not in suc_paths:
            raise DanglingLinkError(f"element {nid!r}: unknown system unit class {ref!r}")
        provenance = Provenance.IMPORT
        labels: dict[str, LabelValue] = {}
        role_path: str | None = None
        for child in elem:
            if child.tag == "Attribute":
                key, value = _parse_attribute(child)
                if key == "provenance":
                    provenance = Provenance(str(value))
                elif key.startswith("label:"):
                    labels[key[len("label:"):]] = value
            elif child.tag == "RoleRequirements":
                role_path = child.get("RefBaseRoleClassPath")
            elif child.tag == "ExternalInterface":
                iid = child.get("ID")
                if iid is None:
                    raise AmlIdError(f"interface without ID under {nid!r}")
                if iid in iface_owner:
                    raise AmlIdError(f"duplicate interface ID {iid!r}")
                iface_owner[iid] = nid
                parsed = dict(_parse_attribute(a) for a in child if a.tag == "Attribute")
                iface_labels[iid] = {
                    k[len("label:"):]: v for k, v in parsed.items() if k.startswith("label:")
                }
            elif child.tag == "InternalLink":
                a = child.get("RefPartnerSideA")
                b = child.get("RefPartnerSideB")
                if a is None or b is None:
                    raise DanglingLinkError(f"link {child.get('Name')!r} missing a side")
                links.append((child.get("Name", ""), a, b))
        if role_path is None:
            raise UnknownRoleError(f"element {nid!r} lacks a RoleRequirements entry")
        if role_path not in KIND_OF_ROLE:
            raise UnknownRoleError(f"role class path {role_path!r} not in the role table")
        kind = KIND_OF_ROLE[role_path]
        graph.add_node(Node(nid, kind, name, dict(sorted(labels.items())), provenance))
        if parent_id is not None:
            contains.append((parent_id, nid))
        for child in elem:
            if child.tag == "InternalElement":
                walk(child, nid, depth + 1)

    hierarchies = [c for c in caex if c.tag == "InstanceHierarchy"]
    if len(hierarchies) != 1:
        raise AmlSyntaxError(f"expected one InstanceHierarchy, found {len(hierarchies)}")
    try:
        # Only checked: template labels are read from the TemplatePattern elements.
        for attr in caex.iterfind(".//SystemUnitClass/Attribute"):
            _parse_attribute(attr)
        for elem in hierarchies[0]:
            if elem.tag == "InternalElement":
                walk(elem, None, 0)
    except ValueError as exc:  # a provenance, xs:boolean, xs:integer or xs:double value
        raise AmlSyntaxError(f"bad attribute value: {exc}") from None

    for parent_id, child_id in contains:
        graph.add_edge(Edge(EdgeKind.CONTAINS, parent_id, child_id))
    for name, a, b in links:
        if a not in iface_owner or b not in iface_owner:
            raise DanglingLinkError(f"link {name!r} references unknown interface")
        try:
            kind = EdgeKind(name)
        except ValueError:
            raise DanglingLinkError(f"link name {name!r} is not an edge kind") from None
        graph.add_edge(
            Edge(kind, iface_owner[a], iface_owner[b], dict(iface_labels.get(a, {})))
        )
    return graph


def validate_aml(xml_bytes: bytes) -> list[Finding]:
    """The reason :func:`import_aml` rejects the document, as one finding;
    an empty list when it imports."""
    try:
        import_aml(xml_bytes)
    except AmlError as exc:
        return [Finding(exc.code, str(exc))]
    except GraphError as exc:
        return [Finding("graph", str(exc))]
    return []
