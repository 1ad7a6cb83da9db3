"""Command-line entry point wiring the pipeline stages.

Exit codes: 0 success, 1 input or configuration error, 2 data invariant
violation, 3 internal error. Failures print one machine-parsable line to
stderr: ``plantrecon: error code=<n> type=<ExceptionName> msg="..."``.
"""

from __future__ import annotations

import logging

import click

from . import pipeline
from .config import (
    PipelineConfig,
    plant_spec_to_dict,
    plant_spec_from_dict,
    read_kv_file,
    write_kv_file,
)
from .errors import DataError, InputError

logger = logging.getLogger(__name__)


def _fail(exc: BaseException) -> "click.exceptions.Exit":
    # An absent or undecodable file is unusable input, like a bad config.
    if isinstance(exc, (InputError, FileNotFoundError, UnicodeDecodeError)):
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


def _build_config(ctx: click.Context) -> PipelineConfig:
    params = ctx.obj
    if params["config"] is not None:
        cfg = PipelineConfig.load(params["config"])
    else:
        cfg = PipelineConfig()
    overrides = {
        k: params[k] for k in ("seed", "out_dir", "log_level") if params[k] is not None
    }
    cfg.update(overrides)
    return cfg


@click.group()
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Pipeline configuration file (key = value).")
@click.option("--seed", type=int, default=None, help="Override the configured seed.")
@click.option("--out-dir", type=click.Path(file_okay=False), default=None,
              help="Directory for all stage outputs.")
@click.option("--log-level", default=None, help="DEBUG, INFO, WARNING or ERROR.")
@click.pass_context
def main(ctx: click.Context, config, seed, out_dir, log_level):
    """Reconstruct a plant's relational model from recorded data."""
    ctx.obj = {"config": config, "seed": seed, "out_dir": out_dir, "log_level": log_level}
    logging.basicConfig(
        level=(log_level or "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _stage_command(ctx: click.Context, runner) -> None:
    try:
        cfg = _build_config(ctx)
        logging.getLogger().setLevel(cfg.log_level.upper())
        runner(cfg)
    except click.exceptions.Exit:
        raise
    except BaseException as exc:  # mapped to the declared exit codes
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        raise _fail(exc) from None


@main.command("analyze-plc")
@click.pass_context
def cmd_analyze_plc(ctx):
    """Parse the PLC project and emit the functional-grouping fragment."""

    def run(cfg: PipelineConfig):
        graph = pipeline.stage_analyze_plc(cfg)
        click.echo(f"analyze-plc: {graph.node_count} nodes, {graph.edge_count} edges")

    _stage_command(ctx, run)


@main.command("analyze-dynamics")
@click.pass_context
def cmd_analyze_dynamics(ctx):
    """Correlate IO and RTLS traces and emit the physical-grouping fragment."""

    def run(cfg: PipelineConfig):
        graph = pipeline.stage_analyze_dynamics(cfg)
        click.echo(f"analyze-dynamics: {graph.node_count} nodes, {graph.edge_count} edges")

    _stage_command(ctx, run)


@main.command("mine")
@click.pass_context
def cmd_mine(ctx):
    """Merge the stage fragments, mine templates, and mark them."""

    def run(cfg: PipelineConfig):
        graph, templates = pipeline.stage_mine(cfg)
        click.echo(f"mine: {len(templates)} maximal templates, graph {graph.node_count} nodes")

    _stage_command(ctx, run)


@main.command("export")
@click.pass_context
def cmd_export(ctx):
    """Export the assembled graph as an AutomationML file."""

    def run(cfg: PipelineConfig):
        data = pipeline.stage_export(cfg)
        click.echo(f"export: {len(data)} bytes of AML")

    _stage_command(ctx, run)


@main.command("synth")
@click.option("--preset", type=click.Choice(["mini", "reference"]), default=None,
              help="Built-in plant spec.")
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="plantspec file (key = value).")
@click.pass_context
def cmd_synth(ctx, preset, spec_path):
    """Generate a synthetic plant: PLC XML, traces, ground truth, config."""

    def run(cfg: PipelineConfig):
        from . import synth

        if spec_path is not None:
            spec = plant_spec_from_dict(read_kv_file(spec_path))
        elif preset == "reference":
            spec = synth.reference_spec()
        elif preset == "mini":
            spec = synth.mini_spec()
        else:
            raise InputError("synth needs --preset or --spec")
        if ctx.obj["seed"] is not None:
            import dataclasses

            spec = dataclasses.replace(spec, seed=ctx.obj["seed"])
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

    _stage_command(ctx, run)


@main.command("evaluate")
@click.pass_context
def cmd_evaluate(ctx):
    """Score the assembled graph against the generator's ground truth."""

    def run(cfg: PipelineConfig):
        report = pipeline.stage_evaluate(cfg)
        click.echo(report.to_text(), nl=False)

    _stage_command(ctx, run)


@main.command("run-all")
@click.pass_context
def cmd_run_all(ctx):
    """Run the whole pipeline and print a stage-timing summary."""

    def run(cfg: PipelineConfig):
        result = pipeline.run_all(cfg)
        click.echo(result.timing_text(), nl=False)
        if result.report is not None:
            click.echo(result.report.to_text(), nl=False)

    _stage_command(ctx, run)


if __name__ == "__main__":
    main()
