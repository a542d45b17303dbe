"""End-to-end benchmark of the CMI reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream-serial --seed 1 --seconds 20 --trace 0

Workloads: ``stream-serial``, ``stream-sharded``, ``enact-taskforce`` and
``stream-durable`` (see :mod:`workloads` and ``BENCHMARK.json``).  The
inputs come from ``--seed`` alone.

Each repetition runs in a fresh interpreter (``rep.py``).  With
``--trace 0`` repetitions run until about ``--seconds`` of measured time
is spent, and the end-to-end metrics are reported: set-up time, work
done per second, the 50th, 90th and 99th percentile of the latency a
participant sees, and peak resident memory.  The result object carries
the ones steady enough to gate a change (``END_TO_END``).  With
``--trace 1`` one
untraced and one traced repetition run, and the per-layer metrics are
reported, including the tracing overhead between the two.

Every repetition is checked against a reference: stream notifications
against a serial-backend run of the same input (computed once per
invocation, before any timed repetition), enactment notifications
against the generator's ground truth.  Failed operations plus missing,
extra or misordered notifications are the ``failed`` count.

The report is printed as a table and written to
``perfbench/out/result-<workload>-<seed>-trace<0|1>.json``; the last line
of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"error: program sources not found under {SRC}")
sys.path[:0] = [SRC, HERE]

from layers import metric_specs  # noqa: E402
from workloads import WORKLOADS, quantile, stream_reference  # noqa: E402

#: ``(name, unit)`` of the end-to-end metrics, reported on every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
#: Printed and saved beside them, but not part of the result object: on
#: a shared 2-core machine their run-to-run spread reaches or exceeds the
#: largest regression bound the benchmark may set (0.25 of the median).
REPORT_ONLY = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
)

#: Fewest untraced repetitions per run (``stream-sharded``'s ladder
#: fills about half the budget).
MIN_REPS = {
    "stream-serial": 2,
    "stream-sharded": 2,
    "enact-taskforce": 2,
    "stream-durable": 2,
}
MAX_REPS = 10
#: Wall-clock cap of one invocation; no repetition starts past it.
WALL_LIMIT_S = 120.0


def summary(value: float, samples: List[float]) -> Dict[str, float]:
    return {
        "value": value,
        "q1": quantile(samples, 0.25),
        "median": quantile(samples, 0.5),
        "q3": quantile(samples, 0.75),
        "n": len(samples),
    }


# -- repetitions ---------------------------------------------------------------------------


def run_rep(workload: str, seed: int, seconds: float, trace: bool,
            timeout: float) -> Dict[str, Any]:
    command = [sys.executable, os.path.join(HERE, "rep.py"), workload,
               str(seed), repr(seconds), "1" if trace else "0"]
    # A session of its own, so a timed-out repetition is killed together
    # with any shard workers it forked.
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as child:
        try:
            stdout, stderr = child.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise RuntimeError(f"repetition of {workload} timed out") from None
    if child.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"repetition of {workload} exited with "
                           f"{child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def check(rep: Dict[str, Any], reference: Optional[List[Tuple]]) -> Dict[str, int]:
    """Compare one repetition with its reference."""
    if reference is None:
        missing, extra, misordered = rep["missing"], rep["extra"], 0
    else:
        got = [tuple(key) for key in rep["notifications"]]
        missing = sum((Counter(reference) - Counter(got)).values())
        extra = sum((Counter(got) - Counter(reference)).values())
        misordered = 0
        expected_streams = per_instance(reference)
        for instance, stream in per_instance(got).items():
            wanted = expected_streams.get(instance, [])
            if stream != wanted and Counter(stream) == Counter(wanted):
                misordered += 1
    return {
        "failed_ops": rep["failed_ops"],
        "missing": missing,
        "extra": extra,
        "misordered": misordered,
    }


def per_instance(keys: List[Tuple]) -> Dict[Any, List[Tuple]]:
    streams: Dict[Any, List[Tuple]] = defaultdict(list)
    for key in keys:
        streams[key[4]].append(key)
    return streams


# -- aggregation -----------------------------------------------------------------------------


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    setups = [s for rep in reps for s in rep["setup_s"]]
    throughputs = [rep["throughput"] for rep in reps]
    # Time-weighted over all repetitions: the machine's speed drifts on a
    # scale of seconds, and the mean over the whole run averages it out.
    measured = [rep["measured_s"] for rep in reps]
    throughput = sum(t * s for t, s in zip(throughputs, measured)) / sum(measured)
    latencies = [x for rep in reps for x in rep["latencies_ms"]]
    rss = [rep["rss_mb"] for rep in reps]
    return {
        "setup_s": summary(statistics.median(setups), setups),
        "latency_p90_ms": summary(quantile(latencies, 0.9), latencies),
        "peak_rss_mb": summary(statistics.median(rss), rss),
        "throughput_per_s": summary(throughput, throughputs),
        "latency_p50_ms": summary(quantile(latencies, 0.5), latencies),
        "latency_p99_ms": summary(quantile(latencies, 0.99), latencies),
    }


def named(workload: str, reps: List[Dict[str, Any]],
          metrics: Dict[str, Dict[str, float]]) -> Dict[str, Any]:
    """The workload's metrics under their own names (report only)."""
    throughput = metrics["throughput_per_s"]["value"]
    if workload == "enact-taskforce":
        return {"ops_per_s": throughput,
                "op_p50_us": metrics["latency_p50_ms"]["value"] * 1e3,
                "op_p99_us": metrics["latency_p99_ms"]["value"] * 1e3,
                "op_samples": metrics["latency_p50_ms"]["n"]}
    notify = [x for rep in reps for x in rep["notify_ms"]]
    out: Dict[str, Any] = {
        "notify_p50_ms": quantile(notify, 0.5),
        "notify_p99_ms": quantile(notify, 0.99),
        "notify_samples": len(notify),
    }
    if workload == "stream-sharded":
        out["sustained_eps"] = statistics.median(r["sustained_eps"] for r in reps)
        out["capacity_eps"] = throughput
        return out
    out["events_per_s"] = throughput
    if workload == "stream-durable":
        recoveries = [x for rep in reps for x in rep["recovery_ms"]]
        out["recovery_ms"] = statistics.median(recoveries) if recoveries else 0.0
        out["recoveries"] = len(recoveries)
    return out


# -- reporting -------------------------------------------------------------------------------


def print_report(workload: str, seed: int, result: Dict[str, Any]) -> None:
    out = sys.stdout
    out.write(f"\n{workload}  seed={seed}  repetitions={result['repetitions']}"
              f"  error_rate={result['error_rate']:.6f}\n")
    units = dict(END_TO_END + REPORT_ONLY)
    if result["end_to_end"]:
        out.write(f"{'metric':<22}{'unit':>6}{'value':>14}{'q1':>12}"
                  f"{'median':>12}{'q3':>12}{'n':>8}\n")
        for name, row in result["end_to_end"].items():
            out.write(f"{name:<22}{units[name]:>6}{row['value']:>14.4f}"
                      f"{row['q1']:>12.4f}{row['median']:>12.4f}"
                      f"{row['q3']:>12.4f}{row['n']:>8}\n")
        for name, value in result["named"].items():
            out.write(f"  {name} = {value:.4f}\n")
    for rung in result.get("rungs", ()):
        out.write(
            f"  rung {rung['rate']:>5} ev/s: p50 {rung['p50_ms']:.2f} ms, "
            f"p99 {rung['p99_ms']:.2f} ms, n={rung['notifications']}, "
            f"late {rung['lateness_ms']:.1f} ms, backlog at end "
            f"{rung['backlog_end']}, achieved "
            f"{rung['achieved_eps']:.0f} ev/s, "
            f"{'sustained' if rung['sustained'] else 'not sustained'}\n"
        )
    if result["per_layer"]:
        out.write(f"{'per-layer metric':<52}{'value':>16}\n")
        for name, value in result["per_layer"].items():
            out.write(f"{name:<52}{value:>16.4f}\n")
        out.write(f"{'span':<44}{'calls':>10}{'self ms':>12}{'total ms':>12}\n")
        spans = sorted(result["spans"].items(), key=lambda kv: -kv[1]["self_us"])
        for name, row in spans:
            out.write(f"{name:<44}{row['calls']:>10}{row['self_us'] / 1e3:>12.1f}"
                      f"{row['total_us'] / 1e3:>12.1f}\n")


def declared_metrics(trace: bool) -> Optional[List[str]]:
    """Metric names ``BENCHMARK.json`` declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


# -- main ------------------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    started = time.monotonic()
    reference = None
    if args.workload.startswith("stream-"):
        reference = [tuple(k) for k in
                     stream_reference(args.workload, args.seed, args.seconds)]

    def remaining() -> float:
        return WALL_LIMIT_S + 50.0 - (time.monotonic() - started)

    reps: List[Dict[str, Any]] = []
    traced: Optional[Dict[str, Any]] = None
    if trace:
        reps.append(run_rep(args.workload, args.seed, args.seconds, False,
                            remaining()))
        traced = run_rep(args.workload, args.seed, args.seconds, True,
                         remaining())
    else:
        measured = 0.0
        while len(reps) < MAX_REPS:
            if len(reps) >= MIN_REPS[args.workload]:
                last = reps[-1]["measured_s"]
                if measured + last > args.seconds * 1.1:
                    break
                if time.monotonic() - started > WALL_LIMIT_S:
                    break
            rep = run_rep(args.workload, args.seed, args.seconds, False,
                          remaining())
            reps.append(rep)
            measured += rep["measured_s"]

    checked = reps + ([traced] if traced is not None else [])
    errors = Counter()
    for rep in checked:
        errors.update(check(rep, reference))
    if reference is not None:
        expected = checked[0]["expected_count"]
        if expected is not None and len(reference) != expected:
            errors["reference_count"] += abs(len(reference) - expected)
    attempted = sum(rep["attempted"] for rep in checked)
    failed = sum(errors.values())

    e2e = end_to_end(reps)
    result: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": len(reps),
        "attempted": attempted,
        "errors": dict(errors),
        "error_rate": failed / attempted,
        "end_to_end": {} if trace else e2e,
        "named": named(args.workload, reps, e2e),
        "rungs": reps[0].get("rungs", []),
        "per_layer": {},
        "spans": {},
    }
    if traced is not None:
        untraced = reps[0]
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = (
            (traced["cpu_s"] / traced["units"])
            / (untraced["cpu_s"] / untraced["units"])
        )
        result["per_layer"] = layers
        result["spans"] = traced["spans"]

    print_report(args.workload, args.seed, result)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(
        HERE, "out", f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1)

    if trace:
        names = [name for name, __, ___ in metric_specs()]
        units = {name: unit for name, unit, __ in metric_specs()}
        metrics = {name: {"value": result["per_layer"][name], "unit": units[name]}
                   for name in names}
    else:
        names = [name for name, __ in END_TO_END]
        metrics = {name: {"value": e2e[name]["value"], "unit": unit}
                   for name, unit in END_TO_END}
    declared = declared_metrics(trace)
    if declared is not None and declared != names:
        print("error: BENCHMARK.json and perfbench disagree on the metric "
              "names", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
