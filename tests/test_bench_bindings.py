"""The benchmark's tracer wraps program functions by module attribute name;
a rename in the program would otherwise show only as ``unavailable`` in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_to_a_callable():
    unresolved = []
    for name, module_name, attribute, _ in _load_tracing().TARGETS:
        # Resolved as Tracer.install does, without installing the wrappers.
        owner = importlib.import_module(f"plantrecon.{module_name}")
        *path, attribute = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, attribute, None)):
            unresolved.append(name)
    assert unresolved == []
