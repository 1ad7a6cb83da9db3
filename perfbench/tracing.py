"""Outside-in tracing of one plantrecon command.

Run as::

    python3 perfbench/tracing.py SPANS_JSON <plantrecon arguments...>

with the program's ``src`` directory on ``PYTHONPATH``. The script wraps
the public functions of each layer on the module attributes that the
stages actually call, runs the command in this process through the
program's click entry point, and writes the recorded spans and counts to
SPANS_JSON. It exits with the command's exit code. The program's source
is not touched: every span is recorded from here, around the calls into
a layer.

``layer_metrics`` turns the span files of one traced workload into
per-layer self times and counts.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path


def _count_len(key):
    def count(counts, bound, result):
        counts[key] += len(result)

    return count


def _count_knn(counts, bound, result):
    training = bound["model"].training
    counts["dtw.pairs"] += len(training)
    counts["dtw.cells"] += len(bound["query"]) * sum(len(series) for series, _ in training)


def _count_dynamics(counts, bound, result):
    counts["dynamics.known_estimates"] += sum(
        1 for e in result.estimates.values() if e.status.value == "Known"
    )
    counts["dynamics.assigned"] += len(result.assignments)


def _count_save(counts, bound, result):
    graph = bound["graph"]
    counts["graph.nodes"] += graph.node_count
    counts["graph.template_instance_nodes"] += sum(
        1 for n in graph.nodes() if n.kind.value == "TemplateInstance"
    )
    counts["graph.dtgraph_bytes"] += os.path.getsize(bound["path"])


def _count_view(counts, bound, result):
    counts["mining.view_vertices"] += len(result.vertex_ids)
    counts["mining.view_edges"] += len(result.edges)


def _count_mine(counts, bound, result):
    counts["mining.patterns"] += len(result)
    counts["mining.stored_embeddings"] += sum(len(p.embeddings) for p in result)


# (span name, module under plantrecon, attribute, counter). The attribute
# is the binding the caller looks up: pipeline imports the trace loaders,
# merge and load_graph by name, dynamics imports match_events and
# knn_classify by name, and PropertyGraph.save calls graph.save_graph.
# A dotted attribute is a method, looked up on its class.
TARGETS = (
    ("pipeline.stage_analyze_plc", "pipeline", "stage_analyze_plc", None),
    ("pipeline.stage_analyze_dynamics", "pipeline", "stage_analyze_dynamics", None),
    ("pipeline.stage_mine", "pipeline", "stage_mine", None),
    ("pipeline.stage_export", "pipeline", "stage_export", None),
    ("pipeline.stage_evaluate", "pipeline", "stage_evaluate", None),
    ("plc.parse_project", "plc", "parse_project", None),
    ("grouping.functional_grouping", "grouping", "functional_grouping", None),
    ("traces.load_io_trace", "pipeline", "load_io_trace", _count_len("traces.io_samples")),
    ("traces.load_rtls_trace", "pipeline", "load_rtls_trace", _count_len("traces.rtls_samples")),
    ("traces.match_events", "dynamics", "match_events", _count_len("traces.matched_positions")),
    ("dtw.knn_classify", "dynamics", "knn_classify", _count_knn),
    ("dynamics.analyze_dynamics", "dynamics", "analyze_dynamics", _count_dynamics),
    ("graph.merge", "pipeline", "merge", None),
    ("graph.load_graph", "pipeline", "load_graph", None),
    ("graph.save_graph", "graph", "save_graph", _count_save),
    ("mining.project_for_mining", "mining", "project_for_mining", _count_view),
    ("mining.mine", "mining", "mine", _count_mine),
    ("mining.select_templates", "mining", "select_templates", _count_len("mining.templates")),
    ("mining.mark_templates", "mining", "mark_templates", None),
    ("mining.summarize", "mining", "summarize", None),
    ("aml.export_aml", "aml", "export_aml", _count_len("aml.bytes")),
    ("aml.validate_aml", "aml", "validate_aml", None),
    ("metrics.evaluate", "metrics", "evaluate", None),
    ("synth.generate", "synth", "generate", None),
    ("synth.write_outputs", "synth", "GeneratedPlant.write_outputs", None),
)

SPAN_NAMES = tuple(name for name, _, _, _ in TARGETS)
COUNT_NAMES = (
    "traces.io_samples",
    "traces.rtls_samples",
    "traces.matched_positions",
    "dtw.pairs",
    "dtw.cells",
    "dynamics.known_estimates",
    "dynamics.assigned",
    "graph.nodes",
    "graph.template_instance_nodes",
    "graph.dtgraph_bytes",
    "mining.view_vertices",
    "mining.view_edges",
    "mining.patterns",
    "mining.stored_embeddings",
    "mining.templates",
    "aml.bytes",
)


class Tracer:
    """Spans (name, start, end, parent index) and counts, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.unavailable: set[str] = set()
        self._open: list[int] = []

    def wrap(self, name, fn, counter=None):
        signature = inspect.signature(fn)

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index][1:3] = (start, end)
            if counter is not None:
                try:
                    counter(self.counts, signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError, OSError):
                    # The program changed shape under the counter: report
                    # the counter as unavailable rather than fail the run.
                    self.unavailable.add(name)
            return result

        return traced

    def install(self) -> None:
        for name, module_name, attribute, counter in TARGETS:
            owner = importlib.import_module(f"plantrecon.{module_name}")
            *path, attribute = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attribute, None)
            if fn is None:
                self.unavailable.add(name)
                continue
            setattr(owner, attribute, self.wrap(name, fn, counter))

    def record(self, exit_code: int) -> dict:
        return {
            "exit_code": exit_code,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
            "unavailable": sorted(self.unavailable),
        }


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Self time per span name (``<name>_s``) and summed counts.

    A span's self time is its duration minus the durations of the spans
    it called; calls into one layer are sequential, so the children never
    overlap. ``pipeline.stages_s`` is the summed duration of the stage
    spans, which should account for the traced wall time.
    """
    self_s: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    stages_s = 0.0
    for record in records:
        spans = record["spans"]
        children = [0.0] * len(spans)
        for span in spans:
            if span["parent"] >= 0:
                children[span["parent"]] += span["end"] - span["start"]
        for span, child_s in zip(spans, children):
            duration = span["end"] - span["start"]
            self_s[span["name"]] += duration - child_s
            if span["name"].startswith("pipeline.stage_"):
                stages_s += duration
        counts.update(record["counts"])
    metrics = {f"{name}_s": self_s.get(name, 0.0) for name in SPAN_NAMES}
    metrics.update({name: counts.get(name, 0) for name in COUNT_NAMES})
    patterns = counts.get("mining.patterns", 0)
    metrics["mining.template_yield"] = counts.get("mining.templates", 0) / patterns if patterns else 0.0
    metrics["pipeline.stages_s"] = stages_s
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print("usage: tracing.py SPANS_JSON <plantrecon arguments...>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    import click

    from plantrecon import cli

    try:
        result = cli.main.main(argv[2:], prog_name="plantrecon", standalone_mode=False)
        code = result if isinstance(result, int) else 0
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    Path(argv[1]).write_text(json.dumps(tracer.record(code)), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
