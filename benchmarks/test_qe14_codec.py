"""QE14 — the binary wire codec vs a JSON framing of the same frames.

The shard channels, the write-ahead journal, and shard snapshots all
speak the interning binary codec (:mod:`repro.parallel.codec`).  Two
measurements:

* **Codec microbench** — encode+decode of the seeded mixed event corpus
  (the interleaved multi-force stream the shard channels actually
  carry): a bench-local JSON reference (event → tagged dict →
  ``json.dumps`` → ``json.loads`` → ``Event.trusted``, the shape the
  retired JSON wire had) vs the binary codec with warm intern tables.
  The binary codec must be >= 3x faster.  Rounds interleave the two
  paths and the ratio is taken best-vs-best, so a noise spike that
  lands on one path's consecutive runs cannot fake (or mask) a
  regression.
* **Differential equivalence** — the serial backend and the process
  backend over the binary wire must produce identical per-instance
  notification order and identical multisets of delivery provenance
  signatures.

``REPRO_QE14_SMOKE=1`` shrinks the corpus (the microbench ratio is still
asserted — it is a pure-CPU property, not a scaling one).
"""

import json
import multiprocessing
import os
import statistics
import time

import pytest

from repro.events.event import Event
from repro.metrics.report import render_table
from repro.parallel import ShardConfig, ShardedFederation
from repro.parallel.codec import BinaryDecoder, BinaryEncoder
from repro.parallel.wire import resolve_event_type
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

SMOKE = bool(os.environ.get("REPRO_QE14_SMOKE"))

FORCES = 8 if SMOKE else 16
WINDOWS_PER_FORCE = 3 if SMOKE else 6
EVENTS_PER_FORCE = 120 if SMOKE else 400
WAVE = 128
ROUNDS = 7 if SMOKE else 11
MICRO_SPEEDUP_FLOOR = 3.0

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend requires the fork start method",
)


def make_workload():
    return ShardStreamWorkload(
        ShardStreamConfig(
            forces=FORCES,
            windows_per_force=WINDOWS_PER_FORCE,
            events_per_force=EVENTS_PER_FORCE,
        )
    )


# ---------------------------------------------------------------------------
# Codec microbench
# ---------------------------------------------------------------------------


def to_json(value):
    """Tag the value shapes JSON lacks, as the retired JSON wire did."""
    if isinstance(value, frozenset):
        return {"$fs": sorted((to_json(member) for member in value), key=repr)}
    if isinstance(value, tuple):
        return {"$t": [to_json(member) for member in value]}
    return value


def from_json(value):
    if isinstance(value, dict):
        if "$fs" in value:
            return frozenset(from_json(member) for member in value["$fs"])
        if "$t" in value:
            return tuple(from_json(member) for member in value["$t"])
    return value


def json_frame(wave):
    """The events frame as JSON bytes: type name + tagged parameters."""
    frame = {
        "kind": "events",
        "events": [
            {
                "type": event.type_name,
                "params": {
                    key: to_json(value)
                    for key, value in event.params.items()
                    if key != "type"
                },
            }
            for event in wave
        ],
    }
    return json.dumps(frame, separators=(",", ":")).encode("utf-8")


def json_events(data):
    """Events back from :func:`json_frame` bytes."""
    return [
        Event.trusted(
            resolve_event_type(entry["type"]),
            {key: from_json(value) for key, value in entry["params"].items()},
        )
        for entry in json.loads(data)["events"]
    ]


def json_pass(waves):
    """The bench-local JSON reference, both ways."""
    for wave in waves:
        events = json_events(json_frame(wave))
        assert len(events) == len(wave)


def binary_pass(waves, encoder, decoder):
    """The binary path: raw events straight through one channel pair."""
    for wave in waves:
        data = encoder.encode_frame({"kind": "events", "events": list(wave)})
        # Production readers hand the decoder ``bytes`` (the payload the
        # pipe read returned); mirror that, header stripped.
        decoded = decoder.decode_payload(bytes(data[4:]))
        assert len(decoded["events"]) == len(wave)


def test_qe14_codec_microbench(benchmark, record_table):
    events = make_workload().events()
    waves = [events[i : i + WAVE] for i in range(0, len(events), WAVE)]
    encoder, decoder = BinaryEncoder(), BinaryDecoder()

    # The reference is a faithful codec, not a strawman.
    assert [dict(event.params) for event in json_events(json_frame(events))] == [
        dict(event.params) for event in events
    ]
    # Warm-up: steady-state intern tables, warm caches for both paths.
    json_pass(waves)
    binary_pass(waves, encoder, decoder)

    json_times, binary_times, ratios = [], [], []
    for __ in range(ROUNDS):
        started = time.perf_counter()
        json_pass(waves)
        json_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        binary_pass(waves, encoder, decoder)
        binary_times.append(time.perf_counter() - started)
        ratios.append(json_times[-1] / binary_times[-1])

    # Best-vs-best over interleaved rounds is the quiet-machine ratio;
    # the per-round median is kept as a cross-check in the table.
    speedup = min(json_times) / min(binary_times)
    benchmark(binary_pass, waves, encoder, decoder)

    json_bytes = sum(len(json_frame(wave)) for wave in waves)
    binary_bytes = sum(
        len(encoder.encode_frame({"kind": "events", "events": list(wave)}))
        for wave in waves
    )

    record_table(
        render_table(
            ("codec", "best round", "bytes", "speedup"),
            [
                ("json", f"{min(json_times) * 1e3:.2f}ms", json_bytes, "1.00x"),
                (
                    "binary",
                    f"{min(binary_times) * 1e3:.2f}ms",
                    binary_bytes,
                    f"{speedup:.2f}x "
                    f"(median {statistics.median(ratios):.2f}x)",
                ),
            ],
            title=f"QE14 codec microbench ({len(events)} events, "
            f"waves of {WAVE}, {ROUNDS} interleaved rounds)",
        )
    )

    assert speedup >= MICRO_SPEEDUP_FLOOR, (
        f"binary codec speedup {speedup:.2f}x is below the "
        f"{MICRO_SPEEDUP_FLOOR}x floor (json {min(json_times):.4f}s, "
        f"binary {min(binary_times):.4f}s)"
    )


# ---------------------------------------------------------------------------
# End-to-end differential
# ---------------------------------------------------------------------------


def drive(workload, shards, backend):
    events = workload.events()
    config = ShardConfig(shards=shards, backend=backend, instrument=True)
    with ShardedFederation(workload.blueprint(), config) as federation:
        federation.ingest(events)
        federation.drain()
        notifications = list(federation.delivered)
    assert len(notifications) == workload.expected_notifications()
    return {"events": len(events), "notifications": notifications}


def signatures(result):
    return sorted(map(repr, (n.signature for n in result["notifications"])))


def per_instance(result):
    streams = {}
    for n in result["notifications"]:
        streams.setdefault(n.process_instance_id, []).append(n.signature)
    return streams


@needs_fork
def test_qe14_binary_wire_is_differentially_equivalent(record_table):
    workload = make_workload()
    serial = drive(workload, shards=2, backend="serial")
    binary = drive(workload, shards=2, backend="process")

    assert all(n.signature is not None for n in serial["notifications"])
    # Identical multiset of delivery provenance signatures...
    assert signatures(binary) == signatures(serial)
    # ...with identical per-instance notification order.
    assert per_instance(binary) == per_instance(serial)

    record_table(
        render_table(
            ("run", "events", "notifications"),
            [
                (name, r["events"], len(r["notifications"]))
                for name, r in (("serial", serial), ("process/binary", binary))
            ],
            title=f"QE14 codec differential ({FORCES} forces x "
            f"{WINDOWS_PER_FORCE} windows)",
        )
    )
