"""PLC project model: vendor-neutral XML parsing, reference resolution, call graph.

The XML schema is deliberately minimal and captures exactly what the
analysis reads. Document structure::

    <PlcProject name="...">
      <HardwareConfig>
        <Device id="PLC1" type="Plc" name="Main PLC" channels="0"/>
        <Device id="DI1" type="DigitalIn" name="Input card 1" channels="8"/>
      </HardwareConfig>
      <TagTable>
        <Tag name="S_occ_1_1" dataType="Bool" address="%I0.0" device="DI1" channel="0"/>
      </TagTable>
      <Blocks>
        <OrganizationBlock name="OB1">
          <Call callee="FB_Row" instanceDb="DB_Row_1"/>
        </OrganizationBlock>
        <FunctionBlock name="FB_Place"/>
        <DataBlock name="DB_Place_1_1" ofType="FB_Place">
          <TagAccess tag="S_occ_1_1" mode="Read"/>
        </DataBlock>
      </Blocks>
    </PlcProject>

Call and TagAccess elements may appear in any block element. Their scope
is the key semantic:

* inside an ``OrganizationBlock``: the OB itself calls / accesses;
* inside a ``DataBlock`` (an FB instance): that one instance calls /
  accesses — per-instance wiring;
* inside a ``FunctionBlock``: every instance of that type calls /
  accesses. A callee instance reached from a multiply-instantiated type
  is shared between the callers and is flagged as such.

Digital addresses are ``%I<byte>.<bit>`` / ``%Q<byte>.<bit>`` (bit 0-7),
analog word addresses are ``%IW<n>`` / ``%QW<n>``. Unknown elements and
attributes are rejected, not ignored.

``build_call_tree`` makes the one pass over the call graph: a topological
sort that also finds recursion and gives the grouping stage its order.
"""

from __future__ import annotations

import heapq
import io
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .errors import DataError


class PlcError(DataError):
    pass


class XmlSyntaxError(PlcError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SchemaViolationError(PlcError):
    def __init__(self, message: str, element: str):
        super().__init__(f"<{element}>: {message}")
        self.element = element


class UnresolvedReferenceError(PlcError):
    def __init__(self, names: list[str]):
        super().__init__(f"unresolved references: {', '.join(sorted(set(names)))}")
        self.names = sorted(set(names))


class RecursiveCallError(PlcError):
    def __init__(self, cycle: list[str]):
        super().__init__(f"recursive call chain: {' -> '.join(cycle)}")
        self.cycle = cycle


class DeviceType(str, Enum):
    PLC = "Plc"
    DIGITAL_IN = "DigitalIn"
    DIGITAL_OUT = "DigitalOut"
    ANALOG_IN = "AnalogIn"
    ANALOG_OUT = "AnalogOut"


_INPUT_DEVICES = {DeviceType.DIGITAL_IN, DeviceType.ANALOG_IN}
_OUTPUT_DEVICES = {DeviceType.DIGITAL_OUT, DeviceType.ANALOG_OUT}
_ANALOG_DEVICES = {DeviceType.ANALOG_IN, DeviceType.ANALOG_OUT}
# Real IO modules have 2-64 channels. Each channel becomes a graph node,
# so one attribute must not be able to size the graph.
_MAX_CHANNELS = 256


class TagDataType(str, Enum):
    BOOL = "Bool"
    INT = "Int"
    REAL = "Real"


class BlockType(str, Enum):
    ORGANIZATION_BLOCK = "OrganizationBlock"
    FUNCTION_BLOCK_TYPE = "FunctionBlock"
    INSTANCE_DATA_BLOCK = "DataBlock"


class AccessMode(str, Enum):
    READ = "Read"
    WRITE = "Write"


@dataclass
class HardwareDevice:
    id: str
    device_type: DeviceType
    name: str
    channel_count: int


@dataclass
class IoTag:
    name: str
    data_type: TagDataType
    address: str
    device_id: str
    channel_index: int

    @property
    def is_input(self) -> bool:
        return self.address.startswith("%I")


@dataclass
class Call:
    callee: str
    instance_db: str


@dataclass
class TagAccess:
    tag: str
    mode: AccessMode


@dataclass
class Block:
    name: str
    block_type: BlockType
    of_type: str | None = None  # DataBlock -> its FunctionBlock type
    calls: list[Call] = field(default_factory=list)
    tag_accesses: list[TagAccess] = field(default_factory=list)


@dataclass
class PlcProject:
    name: str
    devices: list[HardwareDevice]
    tags: list[IoTag]
    blocks: list[Block]
    # Filled by prepare(): instance-level call edges and tag accesses, with
    # type-level entries expanded to every instance of the type.
    prepared: bool = False
    call_edges: list[tuple[str, str]] = field(default_factory=list)
    accesses: dict[str, list[TagAccess]] = field(default_factory=dict)

    def block_map(self) -> dict[str, Block]:
        return {b.name: b for b in self.blocks}

    def tag_map(self) -> dict[str, IoTag]:
        return {t.name: t for t in self.tags}

    def organization_blocks(self) -> list[Block]:
        return [b for b in self.blocks if b.block_type is BlockType.ORGANIZATION_BLOCK]

    def instance_blocks(self) -> list[Block]:
        return [b for b in self.blocks if b.block_type is BlockType.INSTANCE_DATA_BLOCK]


_DIGITAL_ADDR = re.compile(r"^%(I|Q)(\d+)\.(\d+)$")
_ANALOG_ADDR = re.compile(r"^%(I|Q)W(\d+)$")


def _attrs(elem: ET.Element, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    unknown = sorted(set(elem.attrib) - set(required) - set(optional))
    if unknown:
        raise SchemaViolationError(f"unknown attributes {unknown}", elem.tag)
    missing = [a for a in required if a not in elem.attrib]
    if missing:
        raise SchemaViolationError(f"missing attributes {missing}", elem.tag)
    return dict(elem.attrib)


def _int_attr(elem: ET.Element, name: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise SchemaViolationError(f"attribute {name!r} must be an integer, got {value!r}", elem.tag) from None


def _no_children(elem: ET.Element) -> None:
    for child in elem:
        raise SchemaViolationError(f"unexpected element <{child.tag}>", elem.tag)


def _parse_device(elem: ET.Element) -> HardwareDevice:
    a = _attrs(elem, ("id", "type", "name", "channels"))
    _no_children(elem)
    try:
        dtype = DeviceType(a["type"])
    except ValueError:
        raise SchemaViolationError(f"unknown device type {a['type']!r}", elem.tag) from None
    channels = _int_attr(elem, "channels", a["channels"])
    if channels < 0:
        raise SchemaViolationError("channels must be non-negative", elem.tag)
    if channels > _MAX_CHANNELS:
        raise SchemaViolationError(f"channels must be at most {_MAX_CHANNELS}, got {channels}", elem.tag)
    if dtype is not DeviceType.PLC and channels == 0:
        raise SchemaViolationError("IO devices must declare channels > 0", elem.tag)
    return HardwareDevice(a["id"], dtype, a["name"], channels)


def _parse_tag(elem: ET.Element, devices: dict[str, HardwareDevice]) -> IoTag:
    a = _attrs(elem, ("name", "dataType", "address", "device", "channel"))
    _no_children(elem)
    try:
        dtype = TagDataType(a["dataType"])
    except ValueError:
        raise SchemaViolationError(f"unknown dataType {a['dataType']!r}", elem.tag) from None
    device = devices.get(a["device"])
    if device is None:
        raise SchemaViolationError(f"tag {a['name']!r} references unknown device {a['device']!r}", elem.tag)
    channel = _int_attr(elem, "channel", a["channel"])
    address = a["address"]
    md = _DIGITAL_ADDR.match(address)
    ma = _ANALOG_ADDR.match(address)
    if md:
        if dtype is not TagDataType.BOOL:
            raise SchemaViolationError(f"bit address {address!r} requires dataType Bool", elem.tag)
        if device.device_type not in (DeviceType.DIGITAL_IN, DeviceType.DIGITAL_OUT):
            raise SchemaViolationError(f"bit address {address!r} requires a digital device", elem.tag)
        bit = int(md.group(3))
        if bit > 7:
            raise SchemaViolationError(f"bit index {bit} out of range 0-7 in {address!r}", elem.tag)
        if channel != bit:
            raise SchemaViolationError(
                f"channel {channel} inconsistent with address {address!r} (bit {bit})", elem.tag
            )
    elif ma:
        if dtype is TagDataType.BOOL:
            raise SchemaViolationError(f"word address {address!r} cannot carry Bool", elem.tag)
        if device.device_type not in _ANALOG_DEVICES:
            raise SchemaViolationError(f"word address {address!r} requires an analog device", elem.tag)
    else:
        raise SchemaViolationError(f"malformed address {address!r}", elem.tag)
    direction_in = address.startswith("%I")
    if direction_in and device.device_type not in _INPUT_DEVICES:
        raise SchemaViolationError(f"%I address on non-input device {device.id!r}", elem.tag)
    if not direction_in and device.device_type not in _OUTPUT_DEVICES:
        raise SchemaViolationError(f"%Q address on non-output device {device.id!r}", elem.tag)
    if not (0 <= channel < device.channel_count):
        raise SchemaViolationError(
            f"channel {channel} out of range for device {device.id!r} "
            f"({device.channel_count} channels)",
            elem.tag,
        )
    return IoTag(a["name"], dtype, address, device.id, channel)


def _parse_block(elem: ET.Element) -> Block:
    btype = BlockType(elem.tag)
    if btype is BlockType.INSTANCE_DATA_BLOCK:
        a = _attrs(elem, ("name", "ofType"))
        block = Block(a["name"], btype, of_type=a["ofType"])
    else:
        a = _attrs(elem, ("name",))
        block = Block(a["name"], btype)
    for child in elem:
        if child.tag == "Call":
            ca = _attrs(child, ("callee", "instanceDb"))
            _no_children(child)
            block.calls.append(Call(ca["callee"], ca["instanceDb"]))
        elif child.tag == "TagAccess":
            ta = _attrs(child, ("tag", "mode"))
            _no_children(child)
            try:
                mode = AccessMode(ta["mode"])
            except ValueError:
                raise SchemaViolationError(f"unknown access mode {ta['mode']!r}", child.tag) from None
            block.tag_accesses.append(TagAccess(ta["tag"], mode))
        else:
            raise SchemaViolationError(f"unexpected element <{child.tag}>", elem.tag)
    return block


def parse_project(xml_bytes: bytes | str) -> PlcProject:
    """Parse the project XML into a typed model; unknown content is an error."""
    if isinstance(xml_bytes, str):
        xml_bytes = xml_bytes.encode("utf-8")
    try:
        root = ET.parse(io.BytesIO(xml_bytes)).getroot()
    except ET.ParseError as exc:
        line, column = exc.position
        raise XmlSyntaxError(exc.msg if hasattr(exc, "msg") else str(exc), line, column) from None
    except (LookupError, ValueError) as exc:  # an unknown or unsupported declared encoding
        raise XmlSyntaxError(str(exc), 1, 0) from None
    if root.tag != "PlcProject":
        raise SchemaViolationError("root element must be <PlcProject>", root.tag)
    ra = _attrs(root, ("name",))
    devices: list[HardwareDevice] = []
    tags: list[IoTag] = []
    blocks: list[Block] = []
    seen_sections = set()
    for section in root:
        if section.tag in seen_sections:
            raise SchemaViolationError(f"duplicate section <{section.tag}>", root.tag)
        seen_sections.add(section.tag)
        if section.tag == "HardwareConfig":
            _attrs(section, ())
            for child in section:
                if child.tag != "Device":
                    raise SchemaViolationError(f"unexpected element <{child.tag}>", section.tag)
                devices.append(_parse_device(child))
        elif section.tag == "TagTable":
            _attrs(section, ())
            device_map = {d.id: d for d in devices}
            for child in section:
                if child.tag != "Tag":
                    raise SchemaViolationError(f"unexpected element <{child.tag}>", section.tag)
                tags.append(_parse_tag(child, device_map))
        elif section.tag == "Blocks":
            _attrs(section, ())
            for child in section:
                if child.tag not in (bt.value for bt in BlockType):
                    raise SchemaViolationError(f"unexpected element <{child.tag}>", section.tag)
                blocks.append(_parse_block(child))
        else:
            raise SchemaViolationError(f"unexpected element <{section.tag}>", root.tag)
    dup_devices = _duplicates(d.id for d in devices)
    if dup_devices:
        raise SchemaViolationError(f"duplicate device ids {dup_devices}", "Device")
    dup_tags = _duplicates(t.name for t in tags)
    if dup_tags:
        raise SchemaViolationError(f"duplicate tag names {dup_tags}", "Tag")
    dup_blocks = _duplicates(b.name for b in blocks)
    if dup_blocks:
        raise SchemaViolationError(f"duplicate block names {dup_blocks}", "Blocks")
    dup_addr = _duplicates(t.address for t in tags)
    if dup_addr:
        raise SchemaViolationError(f"duplicate addresses {dup_addr}", "Tag")
    plcs = [d for d in devices if d.device_type is DeviceType.PLC]
    if len(plcs) != 1:
        raise SchemaViolationError(f"expected exactly one Plc device, found {len(plcs)}", "HardwareConfig")
    return PlcProject(ra["name"], devices, tags, blocks)


def _duplicates(values) -> list[str]:
    seen: set[str] = set()
    dups: set[str] = set()
    for v in values:
        if v in seen:
            dups.add(v)
        seen.add(v)
    return sorted(dups)


def serialize_project(project: PlcProject) -> bytes:
    """Inverse of :func:`parse_project`; output re-parses to an equal model."""
    root = ET.Element("PlcProject", name=project.name)
    hw = ET.SubElement(root, "HardwareConfig")
    for d in project.devices:
        ET.SubElement(
            hw, "Device", id=d.id, type=d.device_type.value, name=d.name, channels=str(d.channel_count)
        )
    tt = ET.SubElement(root, "TagTable")
    for t in project.tags:
        ET.SubElement(
            tt,
            "Tag",
            name=t.name,
            dataType=t.data_type.value,
            address=t.address,
            device=t.device_id,
            channel=str(t.channel_index),
        )
    bl = ET.SubElement(root, "Blocks")
    for b in project.blocks:
        attrs = {"name": b.name}
        if b.block_type is BlockType.INSTANCE_DATA_BLOCK:
            attrs["ofType"] = b.of_type or ""
        be = ET.SubElement(bl, b.block_type.value, attrs)
        for c in b.calls:
            ET.SubElement(be, "Call", callee=c.callee, instanceDb=c.instance_db)
        for a in b.tag_accesses:
            ET.SubElement(be, "TagAccess", tag=a.tag, mode=a.mode.value)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    buf = io.BytesIO()
    tree.write(buf, encoding="utf-8", xml_declaration=True)
    return buf.getvalue() + b"\n"


def prepare(project: PlcProject) -> PlcProject:
    """Resolve every call, instance-DB and tag reference to explicit edges.

    Expands type-scoped calls and accesses to each instance, records the
    per-instance call edges and tag accesses on the project, and flags
    instances reached from more than one caller. All dangling names are
    collected and reported at once.
    """
    blocks = project.block_map()
    tag_names = set(project.tag_map())
    dangling: list[str] = []

    instances_of_type: dict[str, list[str]] = {}
    for b in project.instance_blocks():
        if not b.of_type:
            dangling.append(f"{b.name} (missing ofType)")
        elif b.of_type not in blocks or blocks[b.of_type].block_type is not BlockType.FUNCTION_BLOCK_TYPE:
            dangling.append(b.of_type)
        else:
            instances_of_type.setdefault(b.of_type, []).append(b.name)

    def check_call(call: Call) -> bool:
        ok = True
        callee = blocks.get(call.callee)
        if callee is None or callee.block_type is not BlockType.FUNCTION_BLOCK_TYPE:
            dangling.append(call.callee)
            ok = False
        inst = blocks.get(call.instance_db)
        if inst is None or inst.block_type is not BlockType.INSTANCE_DATA_BLOCK:
            dangling.append(call.instance_db)
            ok = False
        elif ok and inst.of_type != call.callee:
            dangling.append(f"{call.instance_db} (instance of {inst.of_type}, not {call.callee})")
            ok = False
        return ok

    call_edges: list[tuple[str, str]] = []
    accesses: dict[str, list[TagAccess]] = {}

    def record_access(owner: str, access: TagAccess) -> None:
        if access.tag not in tag_names:
            dangling.append(access.tag)
            return
        accesses.setdefault(owner, []).append(access)

    for block in project.blocks:
        if block.block_type is BlockType.ORGANIZATION_BLOCK:
            owners = [block.name]
        elif block.block_type is BlockType.INSTANCE_DATA_BLOCK:
            owners = [block.name]
        else:  # FunctionBlock type scope: applies to every instance
            owners = sorted(instances_of_type.get(block.name, []))
        for call in block.calls:
            if not check_call(call):
                continue
            for owner in owners:
                call_edges.append((owner, call.instance_db))
        for access in block.tag_accesses:
            for owner in owners:
                record_access(owner, access)

    if dangling:
        raise UnresolvedReferenceError(dangling)

    project.call_edges = sorted(set(call_edges))
    project.accesses = accesses
    project.prepared = True
    return project


@dataclass
class CallTree:
    """Call graph over OB and FB-instance nodes; acyclic, rooted at OBs.

    Shared instances make this a DAG rather than a strict tree; they are
    listed in ``shared`` and handled by the grouping stage via a lowest
    common ancestor placement. ``order`` lists every node after all its
    callers, taking the smallest ready name first.
    """

    roots: list[str]
    nodes: list[str]
    children: dict[str, list[str]]
    parents: dict[str, list[str]]
    order: list[str]

    @cached_property
    def shared(self) -> set[str]:
        """The instances with more than one caller."""
        return {n for n, callers in self.parents.items() if len(callers) > 1}

    def depth(self) -> int:
        best = 0
        stack = [(r, 1) for r in self.roots]
        while stack:
            node, d = stack.pop()
            best = max(best, d)
            stack.extend((c, d + 1) for c in self.children.get(node, []))
        return best


def build_call_tree(project: PlcProject) -> CallTree:
    """Derive the call graph from a prepared project, rejecting recursion.

    One topological pass (Kahn's algorithm, smallest ready name first)
    orders the nodes; a node it never reaches lies on or below a call
    cycle.
    """
    if not project.prepared:
        raise PlcError("project must be prepared before building the call tree")
    obs = sorted(b.name for b in project.organization_blocks())
    instances = sorted(b.name for b in project.instance_blocks())
    nodes = obs + instances
    children: dict[str, list[str]] = {n: [] for n in nodes}
    parents: dict[str, list[str]] = {n: [] for n in nodes}
    for caller, callee in project.call_edges:
        children[caller].append(callee)
        parents[callee].append(caller)
    for n in nodes:
        children[n] = sorted(set(children[n]))
        parents[n] = sorted(set(parents[n]))

    waiting = {n: len(parents[n]) for n in nodes}
    ready = [n for n in nodes if not waiting[n]]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for child in children[node]:
            waiting[child] -= 1
            if not waiting[child]:
                heapq.heappush(ready, child)
    if len(order) < len(nodes):
        # Every node left over has a caller left over: walking up through
        # them from the smallest one must repeat a name, closing a cycle.
        left = {n for n, w in waiting.items() if w}
        node = min(left)
        walk: list[str] = []
        at: dict[str, int] = {}
        while node not in at:
            at[node] = len(walk)
            walk.append(node)
            node = next(p for p in parents[node] if p in left)
        raise RecursiveCallError([node, *reversed(walk[at[node]:])])
    return CallTree(
        roots=obs,
        nodes=nodes,
        children=children,
        parents=parents,
        order=order,
    )
