"""Synthetic brownfield plant generator with machine-readable ground truth.

Models a small intelligent warehouse: working levels stacked vertically,
storage rows per level, storage places per row, plus optional extra units
(lifts, an identification station, a handover dock, an offline panel) to
reach a desired sensor/actuator total. One shuttle tray moves at a time
(missions are sequential, and RTLS tags only emit while their tray is on
a mission), which keeps the time correlation between signal changes and
material positions clean.

Outputs for a spec: the PLC project XML, the IO trace, the RTLS trace
(and its labeled twin for classifier training), the ground truth JSON and
a recommended pipeline configuration. Everything is a pure function of
the spec, including the seed: same spec, byte-identical files.

Geometry: places sit on a 1 m pitch along x, rows on a 2 m pitch along y,
levels on a 2 m pitch along z; the tray moves at 0.5 m/s between
waypoints and dwells at each served component long enough for its
occupancy and eject signals to fire while the tray is in place.

Generating a plant loads neither numpy nor the pipeline: the trace
columns come from ``trace_format``, and ``load_ground_truth`` imports
``mining`` only to check the template structures it reads.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

from .errors import DataError, InputError
from .graph import DEFAULT_EXCLUDED_KINDS, EdgeKind, NodeKind
from .plc import (
    Block,
    BlockType,
    Call,
    DeviceType,
    HardwareDevice,
    IoTag,
    PlcProject,
    TagAccess,
    TagDataType,
    AccessMode,
    serialize_project,
)
from .trace_format import IO_COLUMNS, RTLS_COLUMNS, RTLS_LABEL_COLUMN

PROJECT_NAME = "SynthPlant"
TRAY_SPEED_M_PER_S = 0.5
PLACE_DWELL_MS = 2000
UNIT_DWELL_MS = 1500
MISSION_GAP_MS = 500
PLACE_PITCH_M = 1.0
ROW_PITCH_M = 2.0
LEVEL_PITCH_M = 2.0
ROW_ENTRY_X = 2.0
# Bounds on one recording, so that generating a plant ends in bounded
# memory: a day, and 2,000,000 RTLS samples (the benchmark's long
# recording has about 120,000). The missions, and with them the IO
# events, grow with the duration alone, so both bounds are needed.
MAX_SIM_DURATION_S = 86_400.0
MAX_RTLS_SAMPLES = 2_000_000


class InvalidSpecError(InputError):
    pass


class GroundTruthError(DataError):
    pass


class Granularity(str, Enum):
    PLACE = "Place"
    ROW = "Row"
    LEVEL = "Level"


@dataclass(frozen=True)
class ExtraUnit:
    """An auxiliary component group outside the storage matrix.

    ``attach`` decides which controller calls the unit's FB ("level" units
    are instantiated once per level). ``waypoint`` decides when the unit's
    signals fire: at the level's lift gate, at mission start (infeed), at
    mission end (outfeed), or never ("none" - an offline unit whose
    signals stay constant).
    """

    name: str
    sensors: int
    actuators: int
    attach: str = "system"  # "system" | "level"
    waypoint: str = "none"  # "lift" | "infeed" | "outfeed" | "none"


@dataclass(frozen=True)
class PlantSpec:
    levels: int = 1
    rows_per_level: int = 1
    places_per_row: int = 2
    extra_components: tuple[ExtraUnit, ...] = ()
    tray_count: int = 1
    material_kinds: int = 1
    rtls_rate_hz: float = 10.0
    rtls_noise_sigma_m: float = 0.0
    sim_duration_s: float = 120.0
    seed: int = 42
    location_granularity: Granularity = Granularity.PLACE

    def validate(self) -> None:
        if min(self.levels, self.rows_per_level, self.places_per_row) < 1:
            raise InvalidSpecError("levels, rows and places must all be >= 1")
        if self.tray_count < 1 or self.material_kinds < 1:
            raise InvalidSpecError("tray_count and material_kinds must be >= 1")
        if self.seed < 0:
            raise InvalidSpecError("seed must be non-negative")
        floats = (self.rtls_rate_hz, self.sim_duration_s, self.rtls_noise_sigma_m)
        if not all(map(math.isfinite, floats)):
            raise InvalidSpecError(
                "rtls_rate_hz, sim_duration_s and rtls_noise_sigma_m must be finite"
            )
        if self.rtls_rate_hz <= 0 or self.sim_duration_s <= 0:
            raise InvalidSpecError("rtls_rate_hz and sim_duration_s must be positive")
        if self.sim_duration_s > MAX_SIM_DURATION_S:
            raise InvalidSpecError(f"sim_duration_s must be at most {MAX_SIM_DURATION_S:g} s")
        if self.rtls_rate_hz * self.sim_duration_s > MAX_RTLS_SAMPLES:
            raise InvalidSpecError(
                f"rtls_rate_hz x sim_duration_s must be at most {MAX_RTLS_SAMPLES} samples"
            )
        if self.rtls_noise_sigma_m < 0:
            raise InvalidSpecError("rtls_noise_sigma_m must be non-negative")
        names = [u.name for u in self.extra_components]
        if len(names) != len(set(names)):
            raise InvalidSpecError("extra component names must be unique")
        for unit in self.extra_components:
            if unit.sensors < 0 or unit.actuators < 0:
                raise InvalidSpecError(f"unit {unit.name}: negative tag count")
            if unit.attach not in ("system", "level"):
                raise InvalidSpecError(f"unit {unit.name}: bad attach {unit.attach!r}")
            if unit.waypoint not in ("lift", "infeed", "outfeed", "none"):
                raise InvalidSpecError(f"unit {unit.name}: bad waypoint {unit.waypoint!r}")
            if unit.waypoint == "lift" and unit.attach != "level":
                raise InvalidSpecError(f"unit {unit.name}: lift units must attach per level")


def mini_spec(seed: int = 42) -> PlantSpec:
    """Smallest meaningful plant: 1 level, 1 row, 2 places, noise-free."""
    return PlantSpec(seed=seed)


def reference_spec(seed: int = 42, noise_sigma_m: float = 0.05) -> PlantSpec:
    """A warehouse at the scale of the evaluation system: two working
    levels, four storage rows per level, and exactly 35 sensors and 25
    actuators in total.

    Unit shapes are chosen so that each controller group holds at most one
    sensor-and-actuator unit: otherwise the organization block's group
    would itself repeat the storage-row shape and skew the expected
    template supports.
    """
    return PlantSpec(
        levels=2,
        rows_per_level=4,
        places_per_row=2,
        extra_components=(
            ExtraUnit("lift", sensors=4, actuators=2, attach="level", waypoint="lift"),
            ExtraUnit("station", sensors=5, actuators=1, attach="system", waypoint="infeed"),
            ExtraUnit("dock", sensors=0, actuators=4, attach="system", waypoint="outfeed"),
            ExtraUnit("panel", sensors=6, actuators=0, attach="system", waypoint="none"),
        ),
        tray_count=4,
        material_kinds=4,
        rtls_rate_hz=10.0,
        rtls_noise_sigma_m=noise_sigma_m,
        sim_duration_s=1500.0,
        seed=seed,
        location_granularity=Granularity.ROW,
    )


# ---------------------------------------------------------------------------
# Static structure
# ---------------------------------------------------------------------------


@dataclass
class _UnitInstance:
    unit: ExtraUnit
    level: int | None  # set for level-attached units
    name: str  # e.g. "lift_1" / "station"
    sensor_tags: list[str]
    actuator_tags: list[str]
    position: tuple[float, float, float]
    zone: str | None


@dataclass
class _Structure:
    rows: list[tuple[int, int]]
    units: list[_UnitInstance]
    sensor_names: list[str]
    actuator_names: list[str]
    place_sensor: dict[tuple[int, int, int], str]
    place_actuator: dict[tuple[int, int, int], str]
    functional_path: dict[str, str]  # tag -> group path
    true_position: dict[str, tuple[float, float, float]]
    physical_zone: dict[str, str]  # tag -> truth location label


def _suffix(spec: PlantSpec, level: int, row: int, place: int | None = None) -> str:
    parts = [str(row)] if spec.levels == 1 else [str(level), str(row)]
    if place is not None:
        parts.append(str(place))
    return "_".join(parts)


def place_position(level: int, row: int, place: int) -> tuple[float, float, float]:
    return (
        ROW_ENTRY_X + PLACE_PITCH_M * place,
        ROW_PITCH_M * row,
        LEVEL_PITCH_M * (level - 1),
    )


def lift_gate_position(level: int) -> tuple[float, float, float]:
    return (ROW_ENTRY_X, 0.0, LEVEL_PITCH_M * (level - 1))


def row_entry_position(level: int, row: int) -> tuple[float, float, float]:
    return (ROW_ENTRY_X, ROW_PITCH_M * row, LEVEL_PITCH_M * (level - 1))


def _zone_place(spec: PlantSpec, level: int, row: int, place: int) -> str:
    if spec.location_granularity is Granularity.PLACE:
        return f"L{level}R{row}P{place}"
    if spec.location_granularity is Granularity.ROW:
        return f"L{level}R{row}"
    return f"L{level}"


def _zone_row_transit(spec: PlantSpec, level: int, row: int) -> str | None:
    if spec.location_granularity is Granularity.PLACE:
        return None
    if spec.location_granularity is Granularity.ROW:
        return f"L{level}R{row}"
    return f"L{level}"


def _build_structure(spec: PlantSpec) -> _Structure:
    places = [
        (l, r, p)
        for l in range(1, spec.levels + 1)
        for r in range(1, spec.rows_per_level + 1)
        for p in range(1, spec.places_per_row + 1)
    ]
    rows = [(l, r) for l in range(1, spec.levels + 1) for r in range(1, spec.rows_per_level + 1)]

    units: list[_UnitInstance] = []
    system_counters = {"infeed": 0, "outfeed": 0, "none": 0}
    for unit in spec.extra_components:
        if unit.attach == "level":
            for level in range(1, spec.levels + 1):
                name = f"{unit.name}_{level}"
                units.append(
                    _UnitInstance(
                        unit,
                        level,
                        name,
                        [f"S_{name}_{i}" for i in range(1, unit.sensors + 1)],
                        [f"A_{name}_{i}" for i in range(1, unit.actuators + 1)],
                        lift_gate_position(level),
                        f"LIFT_L{level}" if unit.waypoint == "lift" else None,
                    )
                )
        else:
            k = system_counters[unit.waypoint]
            system_counters[unit.waypoint] += 1
            if unit.waypoint == "infeed":
                pos = (1.0, 0.5 * k, 0.0)
                zone = unit.name.upper()
            elif unit.waypoint == "outfeed":
                pos = (0.5 * k, -1.5, 0.0)
                zone = unit.name.upper()
            else:
                pos = (-2.0, -2.0 - 0.5 * k, 0.0)
                zone = None
            units.append(
                _UnitInstance(
                    unit,
                    None,
                    unit.name,
                    [f"S_{unit.name}_{i}" for i in range(1, unit.sensors + 1)],
                    [f"A_{unit.name}_{i}" for i in range(1, unit.actuators + 1)],
                    pos,
                    zone,
                )
            )

    place_sensor = {}
    place_actuator = {}
    sensor_names: list[str] = []
    actuator_names: list[str] = []
    functional_path: dict[str, str] = {}
    true_position: dict[str, tuple[float, float, float]] = {}
    physical_zone: dict[str, str] = {}

    def level_db(level: int) -> str | None:
        return f"DB_Level_{level}" if spec.levels > 1 else None

    def row_db(level: int, row: int) -> str:
        return f"DB_Row_{_suffix(spec, level, row)}"

    def place_db(level: int, row: int, place: int) -> str:
        return f"DB_Place_{_suffix(spec, level, row, place)}"

    def group_path(*chain: str | None) -> str:
        return "/".join(["OB1"] + [c for c in chain if c])

    for (l, r, p) in places:
        s = f"S_occ_{_suffix(spec, l, r, p)}"
        a = f"A_eject_{_suffix(spec, l, r, p)}"
        place_sensor[(l, r, p)] = s
        place_actuator[(l, r, p)] = a
        sensor_names.append(s)
        actuator_names.append(a)
        path = group_path(level_db(l), row_db(l, r), place_db(l, r, p))
        functional_path[s] = path
        functional_path[a] = path
        true_position[s] = place_position(l, r, p)
        true_position[a] = place_position(l, r, p)
        zone = _zone_place(spec, l, r, p)
        physical_zone[s] = zone
        physical_zone[a] = zone

    for inst in units:
        db = f"DB_{inst.name}"
        if inst.level is not None:
            path = group_path(level_db(inst.level), db)
        else:
            path = group_path(db)
        for tag in inst.sensor_tags + inst.actuator_tags:
            functional_path[tag] = path
            true_position[tag] = inst.position
            physical_zone[tag] = inst.zone if inst.zone else "OFFLINE"
        sensor_names.extend(inst.sensor_tags)
        actuator_names.extend(inst.actuator_tags)

    return _Structure(
        rows,
        units,
        sensor_names,
        actuator_names,
        place_sensor,
        place_actuator,
        functional_path,
        true_position,
        physical_zone,
    )


def _build_project(spec: PlantSpec, st: _Structure) -> PlcProject:
    devices: list[HardwareDevice] = [HardwareDevice("PLC1", DeviceType.PLC, "Main PLC", 0)]
    tags: list[IoTag] = []
    n_in = math.ceil(len(st.sensor_names) / 8) or 1
    n_out = math.ceil(len(st.actuator_names) / 8) or 1
    for i in range(n_in):
        devices.append(HardwareDevice(f"DI{i + 1}", DeviceType.DIGITAL_IN, f"Input card {i + 1}", 8))
    for i in range(n_out):
        devices.append(HardwareDevice(f"DO{i + 1}", DeviceType.DIGITAL_OUT, f"Output card {i + 1}", 8))
    for idx, name in enumerate(sorted(st.sensor_names)):
        byte, bit = divmod(idx, 8)
        tags.append(IoTag(name, TagDataType.BOOL, f"%I{byte}.{bit}", f"DI{byte + 1}", bit))
    for idx, name in enumerate(sorted(st.actuator_names)):
        byte, bit = divmod(idx, 8)
        tags.append(IoTag(name, TagDataType.BOOL, f"%Q{byte}.{bit}", f"DO{byte + 1}", bit))

    blocks: list[Block] = []
    ob = Block("OB1", BlockType.ORGANIZATION_BLOCK)
    blocks.append(ob)
    blocks.append(Block("FB_Place", BlockType.FUNCTION_BLOCK_TYPE))
    blocks.append(Block("FB_Row", BlockType.FUNCTION_BLOCK_TYPE))
    if spec.levels > 1:
        blocks.append(Block("FB_Level", BlockType.FUNCTION_BLOCK_TYPE))
    for unit in spec.extra_components:
        blocks.append(Block(f"FB_{unit.name}", BlockType.FUNCTION_BLOCK_TYPE))

    def add_instance(name: str, of_type: str) -> Block:
        block = Block(name, BlockType.INSTANCE_DATA_BLOCK, of_type=of_type)
        blocks.append(block)
        return block

    level_blocks: dict[int, Block] = {}
    if spec.levels > 1:
        for level in range(1, spec.levels + 1):
            level_blocks[level] = add_instance(f"DB_Level_{level}", "FB_Level")
            ob.calls.append(Call("FB_Level", f"DB_Level_{level}"))
    for (l, r) in st.rows:
        row_name = f"DB_Row_{_suffix(spec, l, r)}"
        row_block = add_instance(row_name, "FB_Row")
        caller = level_blocks.get(l, ob)
        caller.calls.append(Call("FB_Row", row_name))
        for p in range(1, spec.places_per_row + 1):
            place_name = f"DB_Place_{_suffix(spec, l, r, p)}"
            place_block = add_instance(place_name, "FB_Place")
            row_block.calls.append(Call("FB_Place", place_name))
            place_block.tag_accesses.append(TagAccess(st.place_sensor[(l, r, p)], AccessMode.READ))
            place_block.tag_accesses.append(TagAccess(st.place_actuator[(l, r, p)], AccessMode.WRITE))
    for inst in st.units:
        block = add_instance(f"DB_{inst.name}", f"FB_{inst.unit.name}")
        caller = level_blocks.get(inst.level, ob) if inst.level is not None else ob
        caller.calls.append(Call(f"FB_{inst.unit.name}", f"DB_{inst.name}"))
        for tag in inst.sensor_tags:
            block.tag_accesses.append(TagAccess(tag, AccessMode.READ))
        for tag in inst.actuator_tags:
            block.tag_accesses.append(TagAccess(tag, AccessMode.WRITE))
    return PlcProject(PROJECT_NAME, devices, tags, blocks)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


@dataclass
class _Segment:
    t0: int
    t1: int
    p0: tuple[float, float, float]
    p1: tuple[float, float, float]
    zone: str | None

    def position_at(self, t: int) -> tuple[float, float, float]:
        if self.t1 == self.t0:
            return self.p1
        f = (t - self.t0) / (self.t1 - self.t0)
        return (
            self.p0[0] + (self.p1[0] - self.p0[0]) * f,
            self.p0[1] + (self.p1[1] - self.p0[1]) * f,
            self.p0[2] + (self.p1[2] - self.p0[2]) * f,
        )


class _Timeline:
    """One tray mission: movement segments plus IO events."""

    def __init__(self, t_start: int, start_pos: tuple[float, float, float]):
        self.t = t_start
        self.pos = start_pos
        self.segments: list[_Segment] = []
        self.io_events: list[tuple[int, str, float]] = []

    def move_to(self, target: tuple[float, float, float], zone: str | None = None) -> None:
        dist = math.dist(self.pos, target)
        duration = max(1, round(dist * 1000.0 / TRAY_SPEED_M_PER_S))
        self.segments.append(_Segment(self.t, self.t + duration, self.pos, target, zone))
        self.t += duration
        self.pos = target

    def dwell(self, duration_ms: int, zone: str | None = None) -> None:
        self.segments.append(_Segment(self.t, self.t + duration_ms, self.pos, self.pos, zone))
        self.t += duration_ms

    def pulse(self, tag: str, rise: int, fall: int) -> None:
        self.io_events.append((rise, tag, 1.0))
        self.io_events.append((fall, tag, 0.0))


def _unit_dwell(tl: _Timeline, inst: _UnitInstance, material: int) -> None:
    """Dwell at a unit and pulse its tags while the tray sits there.

    At infeed units the first sensor is a presence signal and the
    remaining ones identify the material kind, so exactly one of them
    fires per visit; everywhere else all unit tags pulse.
    """
    t_a = tl.t
    tl.dwell(UNIT_DWELL_MS, inst.zone)
    t_d = tl.t
    tags = list(inst.sensor_tags)
    if inst.unit.waypoint == "infeed" and len(tags) > 1:
        id_sensors = tags[1:]
        tags = [tags[0], id_sensors[material % len(id_sensors)]]
    tags.extend(inst.actuator_tags)
    for i, tag in enumerate(tags):
        offset = 80 * (i + 1)
        tl.pulse(tag, t_a + offset, t_d - offset)


def _run_mission(
    spec: PlantSpec,
    st: _Structure,
    t_start: int,
    level: int,
    row: int,
    material: int,
) -> _Timeline:
    tl = _Timeline(t_start, (0.0, 0.0, 0.0))
    for inst in st.units:
        if inst.unit.waypoint == "infeed":
            tl.move_to(inst.position)
            _unit_dwell(tl, inst, material)
    tl.move_to((ROW_ENTRY_X, 0.0, 0.0))
    gate = lift_gate_position(level)
    if gate[2] > 0.0:
        tl.move_to(gate)
    for inst in st.units:
        if inst.unit.waypoint == "lift" and inst.level == level:
            _unit_dwell(tl, inst, material)
    # The approach corridor is shared between rows, so it stays unlabeled;
    # labeling starts at the row entry.
    transit_zone = _zone_row_transit(spec, level, row)
    tl.move_to(row_entry_position(level, row))
    for p in range(1, spec.places_per_row + 1):
        tl.move_to(place_position(level, row, p), transit_zone)
        t_a = tl.t
        sensor = st.place_sensor[(level, row, p)]
        actuator = st.place_actuator[(level, row, p)]
        tl.io_events.append((t_a, sensor, 1.0))
        tl.dwell(PLACE_DWELL_MS, _zone_place(spec, level, row, p))
        tl.pulse(actuator, t_a + 800, t_a + 1300)
        tl.io_events.append((tl.t, sensor, 0.0))
    tl.move_to(row_entry_position(level, row), transit_zone)
    tl.move_to(gate)
    if gate[2] > 0.0:
        tl.move_to((ROW_ENTRY_X, 0.0, 0.0))
    for inst in st.units:
        if inst.unit.waypoint == "outfeed":
            tl.move_to(inst.position)
            _unit_dwell(tl, inst, material)
    tl.move_to((0.0, 0.0, 0.0))
    return tl


@dataclass
class GroundTruth:
    functional_partition: dict[str, str]
    physical_partition: dict[str, str]
    true_positions: dict[str, tuple[float, float, float]]
    templates: list[dict]
    zone_labels: list[str]
    counts: dict[str, int]


# Pipeline configuration key -> file name, for every file write_outputs writes.
PLANT_FILES = {
    "plc_xml": "plant.plcproject.xml",
    "io_csv": "io.csv",
    "rtls_csv": "rtls.csv",
    "labeled_rtls_csv": "rtls_labeled.csv",
    "ground_truth": "groundtruth.json",
}


@dataclass
class GeneratedPlant:
    spec: PlantSpec
    plc_xml: bytes
    io_rows: list[tuple[int, str, float]]
    rtls_rows: list[tuple[int, str, float, float, float, str | None]]
    ground_truth: GroundTruth
    mission_count: int

    def io_csv(self) -> str:
        lines = [",".join(IO_COLUMNS)]
        lines += [f"{t},{tag},{v!r}" for (t, tag, v) in self.io_rows]
        return "\n".join(lines) + "\n"

    @cached_property
    def _rtls_lines(self) -> list[str]:
        """The header and each row's RTLS_COLUMNS, rendered once for both traces."""
        return [",".join(RTLS_COLUMNS)] + [
            f"{t},{tracker},{x!r},{y!r},{z!r}" for (t, tracker, x, y, z, _) in self.rtls_rows
        ]

    def rtls_csv(self, labeled: bool) -> str:
        lines = self._rtls_lines
        if labeled:
            zones = [RTLS_LABEL_COLUMN] + [row[5] or "" for row in self.rtls_rows]
            lines = [f"{line},{zone}" for line, zone in zip(lines, zones)]
        return "\n".join(lines) + "\n"

    def ground_truth_json(self) -> str:
        gt = self.ground_truth
        payload = {
            "functionalPartition": gt.functional_partition,
            "physicalPartition": gt.physical_partition,
            "truePositions": {k: list(v) for k, v in gt.true_positions.items()},
            "templates": gt.templates,
            "zoneLabels": gt.zone_labels,
            "counts": gt.counts,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write_outputs(self, out_dir: str | Path) -> dict[str, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {key: out / name for key, name in PLANT_FILES.items()}
        paths["plc_xml"].write_bytes(self.plc_xml)
        paths["io_csv"].write_text(self.io_csv(), encoding="utf-8")
        paths["rtls_csv"].write_text(self.rtls_csv(False), encoding="utf-8")
        paths["labeled_rtls_csv"].write_text(self.rtls_csv(True), encoding="utf-8")
        paths["ground_truth"].write_text(self.ground_truth_json(), encoding="utf-8")
        return paths


def _gauss(rng: random.Random) -> float:
    # Box-Muller over rng.random() keeps the stream portable across
    # Python versions (random()'s algorithm is pinned; gauss()'s is not).
    u1 = rng.random()
    while u1 <= 1e-12:
        u1 = rng.random()
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def recommended_min_support(spec: PlantSpec) -> int:
    total_rows = spec.levels * spec.rows_per_level
    return max(2, min(total_rows, spec.levels + 2))


def _expected_templates(spec: PlantSpec, st: _Structure) -> list[dict]:
    """The repeated structures mining should report as maximal templates,
    under the recommended mining configuration."""
    min_support = recommended_min_support(spec)
    total_rows = spec.levels * spec.rows_per_level
    total_places = total_rows * spec.places_per_row
    qualifying_units = sum(1 for u in st.units if u.unit.sensors >= 1 and u.unit.actuators >= 1)
    place_support = total_places + qualifying_units

    c, r, w, call = (
        EdgeKind.CONTAINS.value,
        EdgeKind.READS.value,
        EdgeKind.WRITES.value,
        EdgeKind.CALLS.value,
    )
    fg = NodeKind.FUNCTIONAL_GROUP.value
    sc = NodeKind.SOFTWARE_COMPONENT.value
    se = NodeKind.SENSOR.value
    ac = NodeKind.ACTUATOR.value

    templates: list[dict] = []
    row_expected = (
        total_rows >= min_support and spec.levels < min_support and total_rows > spec.levels
    )
    place_expected = total_places >= 2 and place_support >= min_support and (
        not row_expected or total_rows < place_support
    )
    if place_expected:
        templates.append(
            {
                "name": "place",
                "support": place_support,
                "vertices": [fg, se, ac, sc],
                "edges": [[0, 1, c], [0, 2, c], [0, 3, c], [3, 1, r], [3, 2, w]],
            }
        )
    if row_expected:
        vertices = [fg, sc]
        edges = [[0, 1, c]]
        for p in range(spec.places_per_row):
            base = 2 + 4 * p
            vertices += [fg, se, ac, sc]
            edges += [
                [0, base, c],
                [base, base + 1, c],
                [base, base + 2, c],
                [base, base + 3, c],
                [base + 3, base + 1, r],
                [base + 3, base + 2, w],
                [1, base + 3, call],
            ]
        templates.append(
            {"name": "row", "support": total_rows, "vertices": vertices, "edges": edges}
        )
    return templates


def generate(spec: PlantSpec) -> GeneratedPlant:
    """Produce the full synthetic data set for a plant spec."""
    spec.validate()
    st = _build_structure(spec)
    project = _build_project(spec, st)
    plc_xml = serialize_project(project)

    rng = random.Random(spec.seed)
    interval_ms = max(1, round(1000.0 / spec.rtls_rate_hz))
    duration_ms = round(spec.sim_duration_s * 1000)

    io_events: list[tuple[int, str, float]] = []
    all_tags = sorted(st.sensor_names) + sorted(st.actuator_names)
    for tag in all_tags:
        io_events.append((0, tag, 0.0))

    rtls_rows: list[tuple[int, str, float, float, float, str | None]] = []
    mission_specs = [(l, r) for l in range(1, spec.levels + 1) for r in range(1, spec.rows_per_level + 1)]
    t = MISSION_GAP_MS
    missions = 0
    while True:
        level, row = mission_specs[missions % len(mission_specs)]
        material = missions % spec.material_kinds
        tl = _run_mission(spec, st, t, level, row, material)
        if tl.t > duration_ms:
            break
        io_events.extend(tl.io_events)
        tracker = f"tray{(missions % spec.tray_count) + 1:02d}"
        sample_t = ((tl.segments[0].t0 + interval_ms - 1) // interval_ms) * interval_ms
        seg_idx = 0
        while sample_t <= tl.t:
            while seg_idx < len(tl.segments) and tl.segments[seg_idx].t1 < sample_t:
                seg_idx += 1
            if seg_idx >= len(tl.segments):
                break
            seg = tl.segments[seg_idx]
            x, y, z = seg.position_at(sample_t)
            if spec.rtls_noise_sigma_m > 0:
                x += _gauss(rng) * spec.rtls_noise_sigma_m
                y += _gauss(rng) * spec.rtls_noise_sigma_m
                z += _gauss(rng) * spec.rtls_noise_sigma_m
            rtls_rows.append((sample_t, tracker, x, y, z, seg.zone))
            sample_t += interval_ms
        t = tl.t + MISSION_GAP_MS
        missions += 1
    if missions == 0:
        raise InvalidSpecError(
            "sim_duration_s too short for even one mission; increase it"
        )

    io_events.sort(key=lambda e: (e[0], e[1]))

    counts = {
        "sensors": len(st.sensor_names),
        "actuators": len(st.actuator_names),
        "fbInstances": len(project.instance_blocks()),
        "missions": missions,
        "ioSamples": len(io_events),
        "rtlsSamples": len(rtls_rows),
    }
    ground_truth = GroundTruth(
        functional_partition=dict(sorted(st.functional_path.items())),
        physical_partition=dict(sorted(st.physical_zone.items())),
        true_positions=dict(sorted(st.true_position.items())),
        templates=_expected_templates(spec, st),
        zone_labels=_zone_labels(st),
        counts=counts,
    )
    return GeneratedPlant(spec, plc_xml, io_events, rtls_rows, ground_truth, missions)


def _zone_labels(st: _Structure) -> list[str]:
    """The location labels a tray can be seen at: every zone but OFFLINE."""
    return sorted({z for z in st.physical_zone.values() if z != "OFFLINE"})


def recommended_config(spec: PlantSpec, out_dir: str | Path) -> dict[str, str]:
    """Pipeline configuration matched to a generated plant's ground truth:
    one k-means cluster per zone label that ``generate`` reports."""
    out = Path(out_dir)
    return {
        **{key: str(out / name) for key, name in PLANT_FILES.items()},
        "out_dir": str(out),
        "mode": "classify",
        "seed": str(spec.seed),
        "min_support": str(recommended_min_support(spec)),
        "min_nodes": "3",
        "max_nodes": str(max(12, 2 + 4 * spec.places_per_row)),
        "excluded_kinds": ",".join(sorted(k.value for k in DEFAULT_EXCLUDED_KINDS)),
        "kmeans_k": str(len(_zone_labels(_build_structure(spec)))),
    }


def _is_list(value, is_item) -> bool:
    return isinstance(value, list) and all(map(is_item, value))


def _is_map(value, is_item) -> bool:
    return isinstance(value, dict) and all(map(is_item, value.values()))


def _is_str(value) -> bool:
    return type(value) is str


def _is_structures(value) -> bool:
    # Imported here: generating a plant never checks a template.
    from .mining import is_structure

    return _is_list(value, is_structure)


# groundtruth.json key -> (what its value must be, the check).
_GROUND_TRUTH_SHAPE = {
    "functionalPartition": ("an object of strings", lambda v: _is_map(v, _is_str)),
    "physicalPartition": ("an object of strings", lambda v: _is_map(v, _is_str)),
    "truePositions": ("an object of [x, y, z] numbers", lambda v: _is_map(
        v, lambda p: _is_list(p, lambda c: type(c) in (int, float)) and len(p) == 3
    )),
    "templates": ("a list of template structures", _is_structures),
    "zoneLabels": ("a list of strings", lambda v: _is_list(v, _is_str)),
    "counts": ("an object of integers", lambda v: _is_map(v, lambda n: type(n) is int)),
}


def load_ground_truth(path: str | Path) -> GroundTruth:
    """Read ``groundtruth.json``; a file of the wrong shape raises
    ``GroundTruthError`` naming the first problem."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise GroundTruthError(f"{path}: not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise GroundTruthError(f"{path}: must be a JSON object, got {type(payload).__name__}")
    for key, (shape, ok) in _GROUND_TRUTH_SHAPE.items():
        if key not in payload:
            raise GroundTruthError(f"{path}: missing {key!r}")
        if not ok(payload[key]):
            raise GroundTruthError(f"{path}: {key!r} must be {shape}")
    return GroundTruth(
        functional_partition=payload["functionalPartition"],
        physical_partition=payload["physicalPartition"],
        true_positions={k: tuple(v) for k, v in payload["truePositions"].items()},
        templates=payload["templates"],
        zone_labels=payload["zoneLabels"],
        counts=payload["counts"],
    )
