#!/usr/bin/env python3
"""Summarise one set of benchmark results, or compare two.

    python3 perfbench/compare.py SET_A [SET_B]

A set is a file holding the standard output of any number of
``perfbench/run.py`` runs, one after another. For each workload and
end-to-end metric it prints the sample count, the median and quartiles,
and the spread (quartile distance over the median) against the metric's
bound in BENCHMARK.json. Given two sets, it also prints how far B's
median moved from A's, and exits 1 if any metric got worse by more than
its bound. It refuses (exit 2) to compare results whose machine facts
differ: numbers from one machine are compared only with numbers from the
same machine.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class ResultSet:
    def __init__(self, path: str) -> None:
        self.path = path
        self.machines: list[dict] = []
        # (workload, metric) -> values, over the untraced runs
        self.values: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.failed: dict[str, int] = defaultdict(int)
        header = None
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "perfbench" in record:
                header = record["perfbench"]
                if header["machine"] not in self.machines:
                    self.machines.append(header["machine"])
            elif "metrics" in record and header is not None and header["trace"] == 0:
                self.failed[header["workload"]] += record["failed"]
                for name, metric in record["metrics"].items():
                    self.values[(header["workload"], name)].append(metric["value"])
                header = None
        if len(self.machines) != 1:
            raise SystemExit(f"compare: {path} holds results of {len(self.machines)} machines")

    @property
    def workloads(self) -> list[str]:
        return sorted({w for w, _ in self.values})


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    sets = [ResultSet(p) for p in argv[1:]]
    if len(sets) == 2 and sets[0].machines != sets[1].machines:
        print(
            f"compare: refusing to compare results from different machines: "
            f"{sets[0].machines[0]} vs {sets[1].machines[0]}",
            file=sys.stderr,
        )
        return 2
    a = sets[0]
    print(f"machine: {json.dumps(a.machines[0])}")
    worse = []
    for workload in a.workloads:
        print(f"\n{workload}: failed {' / '.join(str(s.failed[workload]) for s in sets)}")
        for m in metrics:
            va = a.values.get((workload, m["name"]))
            if not va:
                continue
            q1, med, q3 = quartiles(va)
            line = (
                f"  {m['name']:<24} n={len(va):<3} median={med:<12.6g} q1={q1:<12.6g} "
                f"q3={q3:<12.6g} spread={spread(va):.4f} (bound {m['bound']})"
            )
            if len(sets) == 2 and (vb := sets[1].values.get((workload, m["name"]))):
                med_b = quartiles(vb)[1]
                change = (med_b - med) / med if med else 0.0
                worse_by = change if m["better"] == "lower" else -change
                verdict = "ok"
                if worse_by > m["bound"]:
                    verdict = "WORSE"
                    worse.append((workload, m["name"]))
                elif spread(va) > m["bound"]:
                    verdict = "unresolved"
                line += f" | B median={med_b:.6g} n={len(vb)} change={change:+.4f} {verdict}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
