"""Flat ``key = value`` configuration for the pipeline and the generator.

One format serves both the pipeline configuration and the ``plantspec``
generator configuration: one assignment per line, ``#`` comments, blank
lines ignored, unknown and repeated keys rejected. CLI flags override
file values and are read and checked as the keys of the same name.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError
from .graph import DEFAULT_EXCLUDED_KINDS, NodeKind

if TYPE_CHECKING:
    from .synth import PlantSpec


def read_kv_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in key_lines:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {key_lines[key]}")
        key_lines[key] = lineno
        values[key] = value
    return values


def write_kv_file(path: str | Path, values: dict[str, str]) -> None:
    lines = [f"{k} = {values[k]}" for k in sorted(values)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class PipelineConfig:
    plc_xml: Path | None = None
    io_csv: Path | None = None
    rtls_csv: Path | None = None
    labeled_rtls_csv: Path | None = None
    ground_truth: Path | None = None
    out_dir: Path = Path("out")
    mode: str = "classify"
    window_ms: int = 500
    min_matches: int = 5
    kmeans_k: int | None = None
    min_support: int = 2
    min_nodes: int = 3
    max_nodes: int = 12
    excluded_kinds: tuple[NodeKind, ...] = tuple(sorted(DEFAULT_EXCLUDED_KINDS))
    seed: int = 42
    log_level: str = "INFO"

    _PATHS = ("plc_xml", "io_csv", "rtls_csv", "labeled_rtls_csv", "ground_truth", "out_dir")
    _INTS = ("window_ms", "min_matches", "kmeans_k", "min_support", "min_nodes", "max_nodes",
             "seed")

    @classmethod
    def from_dict(cls, values: dict[str, str]) -> "PipelineConfig":
        cfg = cls()
        cfg.update(values)
        return cfg

    def update(self, values: dict[str, str | Path]) -> None:
        """Set each key from its file or flag text (a path may be a Path),
        then check the whole configuration."""
        known = {f.name for f in fields(self) if not f.name.startswith("_")}
        for key, raw in values.items():
            if key not in known:
                raise ConfigError(f"unknown configuration key {key!r}")
            if key in self._PATHS:
                setattr(self, key, Path(raw))
            elif key in self._INTS:
                try:
                    setattr(self, key, int(raw))
                except ValueError:
                    raise ConfigError(f"{key}: expected integer, got {raw!r}") from None
            elif key == "excluded_kinds":
                names = [n.strip() for n in raw.split(",") if n.strip()]
                try:
                    kinds = {NodeKind(n) for n in names}
                except ValueError as exc:
                    raise ConfigError(f"excluded_kinds: {exc}") from None
                setattr(self, key, tuple(sorted(kinds)))
            else:
                setattr(self, key, str(raw))
        self.validate()

    def validate(self) -> None:
        if self.mode not in ("classify", "cluster"):
            raise ConfigError(f"mode must be classify or cluster, got {self.mode!r}")
        if self.mode == "cluster" and self.kmeans_k is None:
            raise ConfigError("mode = cluster needs kmeans_k")
        if self.window_ms <= 0:
            raise ConfigError("window_ms must be positive")
        if self.min_matches < 1:
            raise ConfigError("min_matches must be >= 1")
        if self.kmeans_k is not None and self.kmeans_k < 1:
            raise ConfigError("kmeans_k must be >= 1")
        if self.min_support < 2:
            raise ConfigError("min_support must be >= 2")
        if not (2 <= self.min_nodes <= self.max_nodes):
            raise ConfigError("need 2 <= min_nodes <= max_nodes")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.log_level.upper() not in ("DEBUG", "INFO", "WARNING", "ERROR"):
            raise ConfigError(f"unknown log_level {self.log_level!r}")

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(read_kv_file(path))

    def require(self, *keys: str) -> None:
        for key in keys:
            value = getattr(self, key)
            if value is None:
                raise ConfigError(f"configuration key {key!r} is required for this command")
            if key != "out_dir" and isinstance(value, Path) and not value.exists():
                raise ConfigError(f"{key}: file not found: {value}")


def plant_spec_from_dict(values: dict[str, str]) -> PlantSpec:
    """Build a PlantSpec from ``plantspec`` file values. The keys are
    PlantSpec's fields, each read as the type of the field's default.

    ``extra_components`` is a semicolon list of
    ``name:sensors:actuators:attach:waypoint`` entries.
    """
    from .synth import ExtraUnit, Granularity, PlantSpec

    defaults = {f.name: f.default for f in fields(PlantSpec)}
    kwargs: dict = {}
    for key, raw in values.items():
        if key not in defaults:
            raise ConfigError(f"unknown plantspec key {key!r}")
        caster = type(defaults[key])
        if caster is tuple:
            units = []
            for chunk in str(raw).split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                parts = chunk.split(":")
                if len(parts) != 5:
                    raise ConfigError(
                        f"extra component {chunk!r} must be name:sensors:actuators:attach:waypoint"
                    )
                try:
                    sensors, actuators = int(parts[1]), int(parts[2])
                except ValueError:
                    raise ConfigError(
                        f"extra component {chunk!r}: sensors and actuators must be integers"
                    ) from None
                units.append(ExtraUnit(parts[0], sensors, actuators, parts[3], parts[4]))
            kwargs[key] = tuple(units)
        else:
            try:
                kwargs[key] = caster(raw)
            except ValueError:
                if caster is Granularity:
                    raise ConfigError(f"{key} must be Place|Row|Level, got {raw!r}") from None
                raise ConfigError(f"{key}: expected {caster.__name__}, got {raw!r}") from None
    return PlantSpec(**kwargs)


def plant_spec_to_dict(spec: PlantSpec) -> dict[str, str]:
    """``spec`` as ``plantspec`` file values, one per PlantSpec field."""
    from .synth import Granularity

    values = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, Granularity):
            values[f.name] = value.value
        elif isinstance(value, tuple):
            values[f.name] = ";".join(
                f"{u.name}:{u.sensors}:{u.actuators}:{u.attach}:{u.waypoint}" for u in value
            )
        else:
            values[f.name] = str(value)  # str of a float is its shortest round-trip form
    return values
