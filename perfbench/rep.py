"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 perfbench/rep.py <workload> <seed> <seconds> <trace>``

Runs the workload once and prints its raw results as one JSON line.
With ``trace`` = 1 the layer wrappers of :mod:`layers` are installed
first, the per-layer metrics are added to the result, and every span is
written to ``perfbench/out/spans-<workload>-<seed>.csv.gz``.
``run.py`` starts one of these per repetition, so peak RSS and warmed
caches never carry over from one repetition to the next.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

PROCESS_WORKLOADS = ("stream-sharded", "stream-durable")


def main(argv: list) -> int:
    workload, seed, seconds, trace = (
        argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    )
    tracer = None
    if trace:
        from layers import targets
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(targets(facade_only=workload in PROCESS_WORKLOADS))

    from workloads import RUNNERS

    result = RUNNERS[workload](workload, seed, seconds, tracer)
    if tracer is not None:
        from layers import layer_metrics

        tracer.uninstall()
        events = result["units"]
        if workload == "enact-taskforce":
            events = tracer.timed_counts["emitted"]
        result["layers"], result["spans"] = layer_metrics(
            tracer,
            events=events,
            ops=result["units"],
            wall_us=result["measured_s"] * 1e6,
            stalls=result["stalls"],
            instances=result["instances"],
        )
        tracer.write(os.path.join(HERE, "out", f"spans-{workload}-{seed}.csv.gz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
