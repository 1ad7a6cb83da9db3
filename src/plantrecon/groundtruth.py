"""The generator's ground truth and its ``groundtruth.json`` file.

``synth`` writes the file and ``metrics`` scores a run against it; this
module is their one statement of its keys and shapes. It imports no
numpy and not the generator, so ``evaluate`` reads the file without
compiling ``synth``, and it imports ``mining`` only to check the
template structures it reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError


class GroundTruthError(DataError):
    pass


@dataclass
class GroundTruth:
    functional_partition: dict[str, str]
    physical_partition: dict[str, str]
    true_positions: dict[str, tuple[float, float, float]]
    templates: list[dict]
    zone_labels: list[str]
    counts: dict[str, int]

    def to_json(self) -> str:
        """The ``groundtruth.json`` text: keys sorted, two-space indent."""
        payload = {key: getattr(self, name) for key, (name, _, _) in _KEYS.items()}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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


# groundtruth.json key -> (GroundTruth field, what its value must be, the check).
_KEYS = {
    "functionalPartition": ("functional_partition", "an object of strings",
                            lambda v: _is_map(v, _is_str)),
    "physicalPartition": ("physical_partition", "an object of strings",
                          lambda v: _is_map(v, _is_str)),
    "truePositions": ("true_positions", "an object of [x, y, z] numbers", lambda v: _is_map(
        v, lambda p: _is_list(p, lambda c: type(c) in (int, float)) and len(p) == 3
    )),
    "templates": ("templates", "a list of template structures", _is_structures),
    "zoneLabels": ("zone_labels", "a list of strings", lambda v: _is_list(v, _is_str)),
    "counts": ("counts", "an object of integers", lambda v: _is_map(v, lambda n: type(n) is int)),
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
    for key, (_, shape, ok) in _KEYS.items():
        if key not in payload:
            raise GroundTruthError(f"{path}: missing {key!r}")
        if not ok(payload[key]):
            raise GroundTruthError(f"{path}: {key!r} must be {shape}")
    fields = {name: payload[key] for key, (name, _, _) in _KEYS.items()}
    fields["true_positions"] = {k: tuple(v) for k, v in fields["true_positions"].items()}
    return GroundTruth(**fields)
