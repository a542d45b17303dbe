"""Steadiness self-check of the benchmark against its own bounds.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py [--workloads a,b]

Runs ``run.py --trace 0`` for ``run_seconds`` (``BENCHMARK.json``) in two
sets of ``RUNS`` runs per workload, every run with its own seed (set
``s``, run ``r`` uses seed ``s * RUNS + r + 1``).  For every end-to-end
metric, ``setup_s`` included, it reports the interquartile range of each
set's runs as a share of their median (``statistics.quantiles(values,
n=4)``) and checks it against the metric's ``bound``, and checks that the
second set's median is not worse than the first's by more than the
bound.  A spread under a third of its bound is marked steady.  Every run
must also report ``correct``.  Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    metrics = spec["end_to_end"]
    ok = True
    report: Dict[str, Any] = {}
    for workload in args.workloads.split(","):
        sets: List[Dict[str, List[float]]] = []
        for index in range(SETS):
            values: Dict[str, List[float]] = {m["name"]: [] for m in metrics}
            for run in range(RUNS):
                seed = index * RUNS + run + 1
                result = run_once(workload, seed, spec["run_seconds"])
                if not result["correct"]:
                    print(f"FAIL {workload} seed {seed}: {result['failed']} "
                          f"failed of {result['attempted']}")
                    ok = False
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"  {workload} seed {seed}: " + ", ".join(
                    f"{name} {v[-1]:.4f}" for name, v in values.items()),
                    flush=True)
            sets.append(values)
        report[workload] = sets
        for m in metrics:
            name, bound = m["name"], m["bound"]
            line = f"{workload:<16}{name:<18}"
            for values in (one[name] for one in sets):
                s = spread(values)
                flag = "steady" if s < bound / 3 else (
                    "ok" if s <= bound else "WIDE")
                if flag == "WIDE":
                    ok = False
                line += (f" median {statistics.median(values):>12.4f}"
                         f" spread {s:6.3f} ({flag})")
            drift = worse_by(statistics.median(sets[0][name]),
                             statistics.median(sets[1][name]), m["better"])
            if drift > bound:
                ok = False
            line += f" drift {drift:+.3f}{' DRIFT' if drift > bound else ''}"
            print(line + f" bound {bound}", flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "selfcheck.json"), "w") as handle:
        json.dump(report, handle, indent=1)
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
