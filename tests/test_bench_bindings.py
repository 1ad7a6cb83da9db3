"""The benchmark's tracer wraps program functions by module attribute name;
a rename in the program would otherwise show only as ``unavailable`` in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from plantrecon import dtw, dynamics, pipeline, synth, traces
from plantrecon.config import PipelineConfig, write_kv_file

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, attribute: str):
    """The owner and name of a target's binding, resolved as
    ``Tracer.install`` does."""
    owner = importlib.import_module(f"plantrecon.{module_name}")
    *path, attribute = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, attribute


def test_every_trace_target_resolves_to_a_callable():
    unresolved = []
    for name, module_name, attribute, _ in _load_tracing().TARGETS:
        owner, attribute = _resolve(module_name, attribute)
        if not callable(getattr(owner, attribute, None)):
            unresolved.append(name)
    assert unresolved == []


def test_trace_counters_apply_to_real_results(tmp_path, mini_plant):
    """The counters of the dynamics layers read the program's real return
    values and arguments without raising, which a traced run would
    otherwise report only as ``unavailable``, and count exactly."""
    tracing = _load_tracing()
    counters = {name: counter for name, _, _, counter in tracing.TARGETS}
    tracer = tracing.Tracer()

    def traced(name, fn):
        return tracer.wrap(name, fn, counters[name])

    load_rtls = traced("traces.load_rtls_trace", traces.load_rtls_trace)
    match = traced("traces.match_events", traces.match_events)
    classify = traced("dtw.knn_classify", dtw.knn_classify)

    paths = mini_plant.write_outputs(tmp_path)
    rtls = load_rtls(paths["rtls_csv"])
    assert tracer.counts["traces.rtls_samples"] == mini_plant.ground_truth.counts["rtlsSamples"]

    io = traces.load_io_trace(paths["io_csv"])
    events = dynamics.component_event_series(io, {})["S_occ_1_1"]
    series = match("S_occ_1_1", events, rtls, 500)
    assert tracer.counts["traces.matched_positions"] == len(series) > 0

    model = dtw.knn_train(dynamics.training_segments(traces.load_rtls_trace(paths["labeled_rtls_csv"])))
    classify(model, series)
    assert tracer.counts["dtw.pairs"] == len(model.training)
    assert tracer.counts["dtw.cells"] == len(series) * sum(len(s) for s, _ in model.training)
    assert tracer.unavailable == set()


def test_every_counter_counts_in_a_mini_run_all(tmp_path, monkeypatch):
    """Every counter reads the program's real return values and arguments
    without raising, and each one counts in a mini run-all."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    for name, module_name, attribute, counter in tracing.TARGETS:
        owner, attribute = _resolve(module_name, attribute)
        monkeypatch.setattr(owner, attribute, tracer.wrap(name, getattr(owner, attribute), counter))

    spec = synth.mini_spec()
    plant = synth.generate(spec)
    plant.write_outputs(tmp_path)
    write_kv_file(tmp_path / "pipeline.conf", synth.recommended_config(spec, tmp_path))
    pipeline.run_all(PipelineConfig.load(tmp_path / "pipeline.conf"))

    assert tracer.unavailable == set()
    assert [name for name in tracing.COUNT_NAMES if tracer.counts[name] <= 0] == []
    truth = plant.ground_truth.counts
    assert tracer.counts["traces.io_samples"] == truth["ioSamples"]
    # The plain and the labeled RTLS trace.
    assert tracer.counts["traces.rtls_samples"] == 2 * truth["rtlsSamples"]
    # The rooted search returns only templates.
    assert tracer.counts["mining.templates"] == tracer.counts["mining.patterns"]
