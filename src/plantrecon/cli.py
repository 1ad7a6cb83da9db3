"""Command-line entry point wiring the pipeline stages.

Every flag is a plain string. ``--seed``, ``--out-dir`` and
``--log-level`` override the configuration keys of the same name and are
checked as those keys are, after ``--config`` is read. One wrapper runs
each subcommand and maps whatever it raises to an exit code. Each
command imports the modules it runs when it runs: the pipeline commands
import ``pipeline``, and ``synth`` imports the generator only, so it
starts without numpy.

Exit codes: 0 success, 1 input or configuration error (a bad flag or key,
or a file that cannot be opened, read or written), 2 data invariant
violation, 3 internal error. Failures print one machine-parsable line to
stderr: ``plantrecon: error code=<n> type=<ExceptionName> msg="..."``.
An unknown subcommand or option is click's usage error, exit 2.
"""

from __future__ import annotations

import dataclasses
import functools
import logging

import click

from .config import (
    PipelineConfig,
    plant_spec_to_dict,
    plant_spec_from_dict,
    read_kv_file,
    write_kv_file,
)
from .errors import DataError, InputError


def _fail(exc: BaseException) -> "click.exceptions.Exit":
    # A file that cannot be opened, read, written or decoded is unusable
    # input, like a bad config.
    if isinstance(exc, (InputError, OSError, UnicodeDecodeError)):
        code = 1
    elif isinstance(exc, DataError):
        code = 2
    else:
        code = 3
    msg = str(exc).replace('"', "'").replace("\n", " ")
    click.echo(
        f'plantrecon: error code={code} type={type(exc).__name__} msg="{msg}"', err=True
    )
    return click.exceptions.Exit(code)


@click.group()
@click.option("--config", metavar="PATH", help="Pipeline configuration file (key = value).")
@click.option("--seed", metavar="N", help="Override the configured seed.")
@click.option("--out-dir", metavar="PATH", help="Directory for all stage outputs.")
@click.option("--log-level", metavar="LEVEL", help="DEBUG, INFO, WARNING or ERROR.")
def main(**flags):
    """Reconstruct a plant's relational model from recorded data."""
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")


def _command(name: str):
    """Register ``fn(cfg, **options)`` as the subcommand ``name``. ``cfg``
    is ``--config`` updated with the other global flags; any exception
    ``fn`` or that update raises ends in ``_fail``."""

    def register(fn):
        def run(**options):
            try:
                flags = dict(click.get_current_context().find_root().params)
                path = flags.pop("config")
                cfg = PipelineConfig() if path is None else PipelineConfig.load(path)
                cfg.update({k: v for k, v in flags.items() if v is not None})
                logging.getLogger().setLevel(cfg.log_level.upper())
                fn(cfg, **options)
            except Exception as exc:  # mapped to the declared exit codes
                raise _fail(exc) from None

        return main.command(name)(functools.update_wrapper(run, fn))

    return register


@_command("analyze-plc")
def cmd_analyze_plc(cfg: PipelineConfig):
    """Parse the PLC project and emit the functional-grouping fragment."""
    from . import pipeline

    graph = pipeline.stage_analyze_plc(cfg)
    click.echo(f"analyze-plc: {graph.node_count} nodes, {graph.edge_count} edges")


@_command("analyze-dynamics")
def cmd_analyze_dynamics(cfg: PipelineConfig):
    """Correlate IO and RTLS traces and emit the physical-grouping fragment."""
    from . import pipeline

    graph = pipeline.stage_analyze_dynamics(cfg)
    click.echo(f"analyze-dynamics: {graph.node_count} nodes, {graph.edge_count} edges")


@_command("mine")
def cmd_mine(cfg: PipelineConfig):
    """Merge the stage fragments, mine templates, and mark them."""
    from . import pipeline

    graph, templates = pipeline.stage_mine(cfg)
    click.echo(f"mine: {len(templates)} maximal templates, graph {graph.node_count} nodes")


@_command("export")
def cmd_export(cfg: PipelineConfig):
    """Export the assembled graph as an AutomationML file."""
    from . import pipeline

    data = pipeline.stage_export(cfg)
    click.echo(f"export: {len(data)} bytes of AML")


@_command("synth")
@click.option("--preset", metavar="NAME", help="Built-in plant spec: mini or reference.")
@click.option("--spec", "spec_path", metavar="PATH", help="plantspec file (key = value).")
def cmd_synth(cfg: PipelineConfig, preset, spec_path):
    """Generate a synthetic plant: PLC XML, traces, ground truth, config."""
    from . import synth

    presets = {"mini": synth.mini_spec, "reference": synth.reference_spec}
    if spec_path is not None and preset is not None:
        raise InputError("synth takes --preset or --spec, not both")
    if spec_path is not None:
        spec = plant_spec_from_dict(read_kv_file(spec_path))
    elif preset is None:
        raise InputError("synth needs --preset or --spec")
    elif preset not in presets:
        raise InputError(f"unknown preset {preset!r}, expected mini or reference")
    else:
        spec = presets[preset]()
    if click.get_current_context().find_root().params["seed"] is not None:
        spec = dataclasses.replace(spec, seed=cfg.seed)
    plant = synth.generate(spec)
    paths = plant.write_outputs(cfg.out_dir)
    conf = synth.recommended_config(spec, cfg.out_dir)
    write_kv_file(cfg.out_dir / "pipeline.conf", conf)
    write_kv_file(cfg.out_dir / "plantspec.conf", plant_spec_to_dict(spec))
    click.echo(
        f"synth: {plant.ground_truth.counts['sensors']} sensors, "
        f"{plant.ground_truth.counts['actuators']} actuators, "
        f"{plant.mission_count} missions -> {cfg.out_dir}"
    )
    for name, path in sorted(paths.items()):
        click.echo(f"  {name}: {path}")


@_command("evaluate")
def cmd_evaluate(cfg: PipelineConfig):
    """Score the assembled graph against the generator's ground truth."""
    from . import pipeline

    report = pipeline.stage_evaluate(cfg)
    click.echo(report.to_text(), nl=False)


@_command("run-all")
def cmd_run_all(cfg: PipelineConfig):
    """Run the whole pipeline and print a stage-timing summary."""
    from . import pipeline

    result = pipeline.run_all(cfg)
    click.echo(result.timing_text(), nl=False)
    if result.report is not None:
        click.echo(result.report.to_text(), nl=False)


if __name__ == "__main__":
    main()
