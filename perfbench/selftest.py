"""Self-tests of the benchmark harness. From the root of a checkout:

    python3 -m pytest perfbench/selftest.py

They drive the mini plant, which runs every stage, span and counter in a
few seconds. The file is not named ``test_*.py`` so that the program's
own test suite does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def lines_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    header, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return header["perfbench"], result


@pytest.fixture(scope="module")
def traced_twice() -> list[tuple[dict, dict]]:
    return [lines_of(bench("--workload", "mini", "--seed", "3", "--trace", "1")) for _ in range(2)]


def test_untraced_run_reports_every_end_to_end_metric():
    header, result = lines_of(bench("--workload", "mini", "--seed", "3", "--seconds", "0.5"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(header["setup_s"]) == run.SETUPS
    assert set(header["machine"]) == {"nproc", "cpu", "python", "numpy"}


def test_traced_run_covers_every_layer(traced_twice):
    header, result = traced_twice[0]
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert header["unavailable"] == []
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for name in [f"{n}_s" for n in tracing.SPAN_NAMES] + list(tracing.COUNT_NAMES):
        assert metrics[name]["value"] > 0, name
    assert metrics["metrics.template_recovery"]["value"] == 1.0


def test_traced_counts_repeat_exactly(traced_twice):
    (_, first), (_, second) = traced_twice
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s" and not m["name"].startswith("trace.")]
    assert counted
    assert {n: first["metrics"][n] for n in counted} == {n: second["metrics"][n] for n in counted}


def test_self_time_subtracts_children():
    spans = [
        {"name": "pipeline.stage_mine", "start": 0.0, "end": 10.0, "parent": -1},
        {"name": "mining.mine", "start": 2.0, "end": 5.0, "parent": 0},
        {"name": "graph.save_graph", "start": 3.0, "end": 4.0, "parent": 1},
        {"name": "graph.save_graph", "start": 6.0, "end": 6.5, "parent": 0},
    ]
    metrics = tracing.layer_metrics([{"spans": spans, "counts": {"mining.patterns": 4, "mining.templates": 1}}])
    assert metrics["pipeline.stage_mine_s"] == pytest.approx(6.5)
    assert metrics["mining.mine_s"] == pytest.approx(2.0)
    assert metrics["graph.save_graph_s"] == pytest.approx(1.5)
    assert metrics["pipeline.stages_s"] == pytest.approx(10.0)
    assert metrics["mining.template_yield"] == pytest.approx(0.25)


def test_broken_input_fails_the_run(tmp_path):
    runner = run.Runner(tmp_path, time.perf_counter() + 60)
    wl = run.WORKLOADS["mini"]
    plant = tmp_path / "plant"
    assert runner.synth(wl, 3, plant).code == 0
    conf = plant / "pipeline.conf"
    lines = conf.read_text(encoding="utf-8").splitlines()
    conf.write_text(
        "\n".join(f"rtls_csv = {plant / 'missing.csv'}" if ln.startswith("rtls_csv") else ln for ln in lines),
        encoding="utf-8",
    )
    rep = runner.rep(wl, plant)
    assert [s.code for s in rep.steps] == [1]
    assert rep.problem == "run-all exited 1"


def test_budget_kills_a_hanging_command(tmp_path):
    runner = run.Runner(tmp_path, time.perf_counter() + 0.5)
    step = runner.step([sys.executable, "-c", "import time; time.sleep(60)"])
    assert step.code < 0
    assert step.wall_s < 10


def test_spent_budget_still_reports_a_failed_rep(tmp_path):
    runner = run.Runner(tmp_path, time.perf_counter())
    values, reps, _ = run.measure(run.WORKLOADS["mini"], 3, 1.0, runner)
    assert len(reps) == 1 and reps[0].problem
    assert values["output_mb"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "mini", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_results_of_different_machines(tmp_path):
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    for name, nproc in (("a", 2), ("b", 4)):
        header = {"workload": "mini", "seed": 1, "trace": 0, "machine": {"nproc": nproc}}
        (tmp_path / name).write_text(json.dumps({"perfbench": header}) + "\n" + json.dumps(result) + "\n")
    compare = [sys.executable, str(BENCH_DIR / "compare.py")]
    same = subprocess.run(compare + [str(tmp_path / "a"), str(tmp_path / "a")], capture_output=True, text=True)
    assert same.returncode == 0, same.stderr
    differ = subprocess.run(compare + [str(tmp_path / "a"), str(tmp_path / "b")], capture_output=True, text=True)
    assert differ.returncode == 2
    assert "different machines" in differ.stderr
