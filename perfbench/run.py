#!/usr/bin/env python3
"""The plantrecon benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It generates the workload's
plant with ``plantrecon synth`` (the set-up), runs the workload's
plantrecon commands in fresh subprocesses on it, checks each run's
outputs, and prints one JSON object as the last line of its standard
output: ``{"correct", "attempted", "failed", "metrics"}``. The line
before it is a JSON header with the machine facts and the raw samples.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, untraced.
``--trace 1`` reports its per-layer metrics from a traced run of the same
commands (see tracing.py), and the tracing overhead against one untraced
run. perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

# Set-ups per untraced run; setup_s is their median.
SETUPS = 3
# Repetitions per untraced run at least, however long one takes: on a
# shared 2-CPU machine one repetition of a workload varies by 10-30 %,
# and the median of three drops a single slow one.
MIN_REPS = 3
# Every command of a run must end this long after the run starts, or it
# is killed and the run counted as failed, so the benchmark never hangs.
RUN_BUDGET_S = 150.0
# Each quality metric must reach its value at the commit that defined the
# benchmark: 1.0 on every workload and every seed tried (README.md).
QUALITY_FLOOR = 1.0


@dataclass(frozen=True)
class Workload:
    synth: tuple[str, ...]  # arguments of `plantrecon synth`
    commands: tuple[str, ...]  # plantrecon subcommands, run in order on the plant
    artefact: str  # the output file whose size is output_mb

    @property
    def evaluates(self) -> bool:
        """run-all scores itself into metrics.report."""
        return "run-all" in self.commands


def _spec(name: str) -> tuple[str, ...]:
    return ("--spec", str(BENCH_DIR / "specs" / f"{name}.plantspec"))


WORKLOADS = {
    "reference": Workload(("--preset", "reference"), ("run-all",), "plant.aml"),
    # Not in BENCHMARK.json: a run of three repetitions takes over a minute,
    # too long to repeat as often as `reference` and `recording` are.
    # Run it by name to tell a per-embedding saving from a per-pattern one.
    "levels3": Workload(_spec("levels3"), ("run-all",), "plant.aml"),
    "recording": Workload(
        _spec("recording"), ("analyze-plc", "analyze-dynamics"), "dynamics.dtgraph"
    ),
    # Harness smoke test only: about 0.05 s of work, mostly interpreter start-up.
    "mini": Workload(("--preset", "mini"), ("run-all",), "plant.aml"),
}


@dataclass
class Step:
    """One finished subprocess. ``code`` is negative when it was killed."""

    code: int
    wall_s: float
    rss_mb: float


@dataclass
class Rep:
    """One pass of a workload's commands over one generated plant."""

    steps: list[Step] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    problem: str = ""

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.steps)

    @property
    def rss_mb(self) -> float:
        return max((s.rss_mb for s in self.steps), default=0.0)


class Runner:
    """Runs subprocesses against one deadline, logging into one file."""

    def __init__(self, run_dir: Path, deadline: float) -> None:
        self.run_dir = run_dir
        self.deadline = deadline
        self.log_path = run_dir / "commands.log"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def step(self, argv: list[str]) -> Step:
        with open(self.log_path, "ab") as log:
            log.write(("$ " + " ".join(argv) + "\n").encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT
            )
            timer = threading.Timer(max(0.0, self.remaining()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                code, rss_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
            except ChildProcessError:
                # The timer's kill reaped the child as the deadline passed.
                code, rss_mb = -9, 0.0
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall_s = time.perf_counter() - start
            proc.returncode = code
        return Step(code, wall_s, rss_mb)

    def plantrecon(self, args: list[str], traced_to: Path | None = None) -> Step:
        if traced_to is None:
            prefix = [sys.executable, "-m", "plantrecon.cli"]
        else:
            prefix = [sys.executable, str(BENCH_DIR / "tracing.py"), str(traced_to)]
        return self.step(prefix + args)

    def synth(self, wl: Workload, seed: int, plant: Path, traced_to: Path | None = None) -> Step:
        args = ["--out-dir", str(plant), "--seed", str(seed), "synth", *wl.synth]
        return self.plantrecon(args, traced_to)

    def rep(self, wl: Workload, plant: Path, traced: bool = False) -> Rep:
        rep = Rep()
        for command in wl.commands:
            spans = plant / f"spans-{command}.json" if traced else None
            step = self.plantrecon(["--config", str(plant / "pipeline.conf"), command], spans)
            rep.steps.append(step)
            if step.code != 0:
                what = "was killed at the run's time budget" if step.code < 0 else f"exited {step.code}"
                rep.problem = f"{command} {what}"
                return rep
        try:
            rep.quality, rep.problem = check_outputs(wl, plant)
        except Exception as exc:  # an output the gate cannot read fails the rep
            rep.problem = f"outputs unreadable: {type(exc).__name__}: {exc}"
        return rep


def check_outputs(wl: Workload, plant: Path) -> tuple[dict[str, float], str]:
    """Quality metrics of one finished rep, and what failed the gate."""
    from plantrecon import metrics, synth
    from plantrecon.config import read_kv_file
    from plantrecon.graph import load_graph

    if wl.evaluates:
        report = read_kv_file(plant / "metrics.report")
        quality = {
            "functional_ari": float(report["ari"]),
            "pairwise_f1": float(report["pairwise_f1"]),
            "classification_accuracy": float(report["classification_accuracy"]),
            "template_recovery": float(report["template_recovery"]),
        }
    else:
        truth = synth.load_ground_truth(plant / "groundtruth.json")
        functional = metrics.functional_partition_of(load_graph(plant / "functional.dtgraph"))
        functional = {tag: functional.get(tag, "") for tag in truth.functional_partition}
        assigned = metrics.physical_assignments_of(load_graph(plant / "dynamics.dtgraph"))
        correct = sum(1 for t, label in assigned.items() if truth.physical_partition.get(t) == label)
        quality = {
            "functional_ari": metrics.ari(truth.functional_partition, functional),
            "pairwise_f1": metrics.pairwise_f1(truth.functional_partition, functional),
            "classification_accuracy": correct / len(assigned) if assigned else 0.0,
        }
    below = [f"{k} = {v!r}" for k, v in quality.items() if v < QUALITY_FLOOR]
    return quality, ("quality below floor: " + ", ".join(below)) if below else ""


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure(wl: Workload, seed: int, seconds: float, runner: Runner) -> tuple[dict, list[Rep], dict]:
    """Untraced: SETUPS set-ups, then reps until ``seconds`` have passed
    and MIN_REPS are done, as far as the run's time budget allows."""
    plants: list[Path] = []
    setups: list[Step] = []

    def set_up() -> None:
        plant = runner.run_dir / f"plant{len(plants)}"
        setups.append(runner.synth(wl, seed, plant))
        plants.append(plant)

    for _ in range(SETUPS):
        set_up()
    reps: list[Rep] = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        if reps and runner.remaining() <= 2 * max(r.wall_s for r in reps):
            break
        if len(reps) == len(plants):
            set_up()
        if setups[len(reps)].code != 0:
            reps.append(Rep(problem=f"synth exited {setups[len(reps)].code}"))
            continue
        reps.append(runner.rep(wl, plants[len(reps)]))
    sizes = [
        (plant / wl.artefact).stat().st_size / 1e6
        for plant, rep in zip(plants, reps)
        if not rep.problem
    ]
    values = {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "setup_s": statistics.median(s.wall_s for s in setups),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
        "output_mb": statistics.median(sizes) if sizes else 0.0,
    }
    for key in ("functional_ari", "pairwise_f1", "classification_accuracy"):
        values[key] = min((r.quality.get(key, 0.0) for r in reps), default=0.0)
    samples = {
        "wall_s": [r.wall_s for r in reps],
        "setup_s": [s.wall_s for s in setups],
        "peak_rss_mb": [r.rss_mb for r in reps],
    }
    return values, reps, samples


def measure_traced(wl: Workload, seed: int, runner: Runner) -> tuple[dict, list[Rep], dict]:
    """One untraced rep as the overhead base, then one traced set-up and rep."""
    plain, traced = runner.run_dir / "plain", runner.run_dir / "traced"
    reps = []
    for plant, spans in ((plain, None), (traced, runner.run_dir / "spans-synth.json")):
        setup = runner.synth(wl, seed, plant, spans)
        if setup.code != 0:
            reps.append(Rep(problem=f"synth exited {setup.code}"))
        else:
            reps.append(runner.rep(wl, plant, traced=spans is not None))
    records = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in [runner.run_dir / "spans-synth.json", *sorted(traced.glob("spans-*.json"))]
        if path.exists()
    ]
    values = tracing.layer_metrics(records)
    untraced_s, traced_s = reps[0].wall_s, reps[1].wall_s
    values["trace.untraced_wall_s"] = untraced_s
    values["trace.wall_s"] = traced_s
    values["trace.overhead"] = traced_s / untraced_s - 1 if untraced_s else 0.0
    values["trace.stage_share"] = values.pop("pipeline.stages_s") / traced_s if traced_s else 0.0
    values["metrics.template_recovery"] = reps[1].quality.get("template_recovery", 0.0)
    unavailable = sorted({name for r in records for name in r["unavailable"]})
    return values, reps, {"unavailable": unavailable}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "plantrecon" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a plantrecon checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = WORKLOADS[args.workload]

    start = time.perf_counter()
    run_dir = RUNS_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir, start + RUN_BUDGET_S)
    try:
        if args.trace:
            values, reps, extra = measure_traced(wl, args.seed, runner)
        else:
            values, reps, extra = measure(wl, args.seed, args.seconds, runner)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [r.problem for r in reps if r.problem]
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_facts(),
        "elapsed_s": time.perf_counter() - start,
        "problems": failed,
        **extra,
    }
    print(json.dumps({"perfbench": header}))
    result = {
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
