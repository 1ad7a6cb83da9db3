"""Stage wiring shared by the CLI: each stage reads and writes only its
declared files, and run_all composes them in order, so running the
subcommands by hand produces the same artifacts as one run-all. run_all
still writes every file, but hands each stage's graph to the next in
memory: it mines the merge of the two fragments it just built, and
exports and evaluates the graph it just mined. The standalone
sub-commands read those graphs from the files.

Stage outputs inside ``out_dir``:

========================  ==================================================
``functional.dtgraph``    PLC analysis fragment
``dynamics.dtgraph``      dynamics analysis fragment
``plant.dtgraph``         merged graph with marked templates (final)
``templates.txt``         mined maximal patterns, human readable
``summary.txt``           graph size before/after template collapsing
``plant.aml``             AutomationML export
``metrics.report``        evaluation metrics (deterministic)
``timings.txt``           wall-clock stage timings (not deterministic)
========================  ==================================================
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

# Each stage imports the modules only it runs, so a command starts up
# without the others.
from . import grouping, plc
from .config import PipelineConfig
from .graph import NodeKind, PropertyGraph, load_graph, merge

if TYPE_CHECKING:
    from . import metrics, mining
    from .clustering import KMeansParams

logger = logging.getLogger(__name__)


@dataclass
class RunResult:
    timings: list[tuple[str, float]] = field(default_factory=list)
    report: metrics.MetricsReport | None = None

    def total_seconds(self) -> float:
        return sum(t for _, t in self.timings)

    def timing_text(self) -> str:
        lines = [f"{name} = {seconds:.3f} s" for name, seconds in self.timings]
        lines.append(f"total = {self.total_seconds():.3f} s")
        return "\n".join(lines) + "\n"


def _out(cfg: PipelineConfig, name: str) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg.out_dir / name


def _cluster_method(cfg: PipelineConfig) -> KMeansParams | None:
    """The configured k-means parameters, or None when ``kmeans_k`` is unset."""
    from .clustering import KMeansParams

    return None if cfg.kmeans_k is None else KMeansParams(cfg.kmeans_k, cfg.seed)


# The trace loaders stay bindings of this module, importing ``traces`` (and
# numpy) only when called: perfbench/tracing.py and a test substitute them.
# They fold into stage_analyze_dynamics once the stages count their own
# work (ROADMAP item 1, step 1b).
def load_io_trace(path: Path):
    from .traces import load_io_trace

    return load_io_trace(path)


def load_rtls_trace(path: Path):
    from .traces import load_rtls_trace

    return load_rtls_trace(path)


def stage_analyze_plc(cfg: PipelineConfig) -> PropertyGraph:
    cfg.require("plc_xml")
    project = plc.parse_project(cfg.plc_xml.read_bytes())
    tree = plc.build_call_tree(project)
    graph = grouping.functional_grouping(project, tree)
    graph.save(_out(cfg, "functional.dtgraph"))
    logger.info("functional fragment: %s", graph)
    return graph


def stage_analyze_dynamics(cfg: PipelineConfig) -> PropertyGraph:
    from . import dynamics

    cfg.require("plc_xml", "io_csv", "rtls_csv")
    project = plc.parse_project(cfg.plc_xml.read_bytes())
    tag_kinds = {t.name: grouping.field_device_kind(t) for t in project.tags}
    tag_types = {t.name: t.data_type.value for t in project.tags}
    io = load_io_trace(cfg.io_csv)
    training = []
    if cfg.mode == "classify":
        cfg.require("labeled_rtls_csv")
        # Only the segments are kept: the labeled trace is freed before
        # the operational one loads, so the two are never held at once.
        training = dynamics.training_segments(load_rtls_trace(cfg.labeled_rtls_csv))
    rtls = load_rtls_trace(cfg.rtls_csv)
    result = dynamics.analyze_dynamics(
        io,
        rtls,
        training,
        tag_kinds,
        tag_types,
        project.name,
        dynamics.DynamicsParams(
            window_ms=cfg.window_ms,
            min_matches=cfg.min_matches,
            cluster=_cluster_method(cfg) if cfg.mode == "cluster" else None,
        ),
    )
    result.fragment.save(_out(cfg, "dynamics.dtgraph"))
    logger.info("dynamics fragment: %s", result.fragment)
    return result.fragment


def merge_fragments(cfg: PipelineConfig) -> PropertyGraph:
    functional = load_graph(_out(cfg, "functional.dtgraph"))
    dynamics_path = _out(cfg, "dynamics.dtgraph")
    if dynamics_path.exists():
        merged = merge(functional, load_graph(dynamics_path))
    else:
        merged = functional
    return merged


def stage_mine(
    cfg: PipelineConfig, merged: PropertyGraph | None = None
) -> tuple[PropertyGraph, list[mining.Pattern]]:
    from . import mining

    if merged is None:
        merged = merge_fragments(cfg)
    view = mining.project_for_mining(merged, frozenset(cfg.excluded_kinds))
    patterns = mining.mine(
        view, min_support=cfg.min_support, min_nodes=cfg.min_nodes, max_nodes=cfg.max_nodes
    )
    # Keeps the maximal units: it drops a unit that occurs once inside each
    # occurrence of a larger unit of equal support. perfbench/tracing.py
    # counts mining.templates from it.
    templates = mining.select_templates(patterns)
    mining.mark_templates(merged, templates)
    merged.save(_out(cfg, "plant.dtgraph"))
    mining.write_templates_report(templates, _out(cfg, "templates.txt"))
    summary = mining.summarize(merged)
    _out(cfg, "summary.txt").write_text(summary.to_text(), encoding="utf-8")
    logger.info("mined %d templates", len(templates))
    return merged, templates


def stage_export(cfg: PipelineConfig, graph: PropertyGraph | None = None) -> bytes:
    from . import aml

    if graph is None:
        graph = load_graph(_out(cfg, "plant.dtgraph"))
    xml_bytes = aml.export_aml(graph)
    _out(cfg, "plant.aml").write_bytes(xml_bytes)
    findings = aml.validate_aml(xml_bytes)
    if findings:
        raise aml.AmlError(f"fresh export failed validation: {findings[0].message}")
    return xml_bytes


def templates_from_graph(graph: PropertyGraph) -> list[mining.Pattern]:
    """Recover the structure and support of the marked templates from a
    stored graph; embeddings are not persisted."""
    from . import mining

    return [mining.stored_template(n) for n in graph.query(kinds={NodeKind.TEMPLATE_PATTERN})]


def stage_evaluate(
    cfg: PipelineConfig, graph: PropertyGraph | None = None
) -> metrics.MetricsReport:
    from . import dynamics, metrics, synth
    from .clustering import cluster_positions

    cfg.require("ground_truth")
    if graph is None:
        graph = load_graph(_out(cfg, "plant.dtgraph"))
    truth = synth.load_ground_truth(cfg.ground_truth)

    clustering_assignments = None
    method = _cluster_method(cfg)
    if method is not None and cfg.mode == "cluster":
        # analyze-dynamics ran this k-means on these positions and stored its groups.
        clustering_assignments = metrics.physical_assignments_of(graph)
    elif method is not None:
        estimates = dynamics.stored_estimates(graph)
        if estimates:
            clustering_assignments = cluster_positions(estimates, method).assignments

    report = metrics.evaluate(
        graph, templates_from_graph(graph), truth, clustering_assignments, cfg.mode == "classify"
    )
    _out(cfg, "metrics.report").write_text(report.to_text(), encoding="utf-8")
    return report


def run_all(cfg: PipelineConfig) -> RunResult:
    """analyze-plc -> analyze-dynamics -> merge -> mine -> export -> evaluate."""
    # Every stage runs, so import their modules before the first one:
    # imported between stages, they raised the peak RSS of the reference
    # plant's run-all from 45.8 to 47.0 MB.
    from . import aml, dynamics, metrics, mining, synth  # noqa: F401

    result = RunResult()

    def timed(name: str, fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        result.timings.append((name, time.perf_counter() - start))
        return value

    # Mine the fragments as built, not read back from their files. Only
    # their merge is kept, so they are freed before mining starts.
    merged = merge(
        timed("analyze-plc", stage_analyze_plc, cfg),
        timed("analyze-dynamics", stage_analyze_dynamics, cfg),
    )
    graph, _ = timed("mine", stage_mine, cfg, merged)
    timed("export", stage_export, cfg, graph)
    if cfg.ground_truth is not None:
        result.report = timed("evaluate", stage_evaluate, cfg, graph)
    _out(cfg, "timings.txt").write_text(result.timing_text(), encoding="utf-8")
    return result
