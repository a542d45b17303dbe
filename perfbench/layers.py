"""Layer boundaries the traced run times, and the per-layer metrics.

Every span name starts with its layer's module path (``core``,
``parallel.codec``, ...), so a span's layer is the longest layer name
that prefixes it.  :func:`targets` lists the public calls to wrap;
:func:`layer_metrics` turns a :class:`~tracing.Tracer` summary into the
``per_layer`` metrics of ``BENCHMARK.json``.  Every metric is reported on
every workload; a layer a workload never calls reports 0.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from tracing import Target, Tracer

LAYERS = (
    "parallel.router",
    "parallel.codec",
    "parallel.mux",
    "parallel.federation",
    "parallel.host",
    "events.producers",
    "events.bus",
    "events.event",
    "awareness.operators",
    "awareness.delivery",
    "events.queues",
    "core",
    "coordination",
    "durability.log",
    "durability.supervisor",
)

#: Operator classes the stream and enactment plans instantiate.
OPERATOR_CLASSES = ("ContextFilter", "Count", "Edge", "Compare2", "Output")

COORDINATION_CALLS = (
    "start_process",
    "start_optional_activity",
    "complete_activity",
    "claim",
    "check_awareness",
    "work_items",
)

#: A codec span under a journal append is journal work, not wire work.
RENAME = {
    ("parallel.codec.encode", "durability.log.append"): "durability.log.encode",
}


def metric_specs() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in order."""
    specs = [
        ("parallel.router.us_per_event", "us", "lower"),
        ("parallel.codec.encode_us_per_event", "us", "lower"),
        ("parallel.codec.decode_us_per_event", "us", "lower"),
        ("parallel.codec.bytes_per_event", "bytes", "lower"),
        ("parallel.mux.gather_wait_us", "us", "lower"),
        ("parallel.mux.credit_wait_us", "us", "lower"),
        ("parallel.mux.stalls", "count", "lower"),
        ("parallel.federation.ingest_self_us_per_event", "us", "lower"),
        ("parallel.federation.drain_self_us", "us", "lower"),
        ("parallel.host.drain_results_us", "us", "lower"),
        ("events.producers.self_us_per_event", "us", "lower"),
        ("events.bus.self_us_per_event", "us", "lower"),
        ("events.event.derive_calls", "count", "lower"),
        ("events.event.derive_self_us_per_event", "us", "lower"),
        ("events.event.validated_calls", "count", "lower"),
        ("events.event.validate_self_us_per_event", "us", "lower"),
    ]
    for cls in OPERATOR_CLASSES:
        prefix = f"awareness.operators.{cls}"
        specs += [
            (f"{prefix}.events_in", "count", "lower"),
            (f"{prefix}.events_out", "count", "lower"),
            (f"{prefix}.selectivity", "ratio", "lower"),
            (f"{prefix}.self_us_per_event", "us", "lower"),
        ]
    specs += [
        ("awareness.delivery.notifications", "count", "higher"),
        ("awareness.delivery.self_us", "us", "lower"),
        ("events.queues.self_us", "us", "lower"),
        ("core.resolve_role.calls", "count", "lower"),
        ("core.contexts_for_instance.self_us_per_op", "us", "lower"),
        ("core.contexts_for_instance.self_share", "ratio", "lower"),
        ("core.change_state.self_us_per_op", "us", "lower"),
        ("core.instances_total", "count", "lower"),
    ]
    specs += [(f"coordination.{call}.self_us", "us", "lower")
              for call in COORDINATION_CALLS]
    specs += [
        ("durability.log.append_us_per_event", "us", "lower"),
        ("durability.log.bytes_per_event", "bytes", "lower"),
        ("durability.supervisor.snapshot_us", "us", "lower"),
        ("durability.supervisor.recover_us", "us", "lower"),
    ]
    specs += [(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS]
    specs += [
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return specs


# -- wrapped calls --------------------------------------------------------------


def _count_encoded(tracer: Tracer, args: Any, result: Any) -> None:
    parent = tracer.current()
    key = "encoded_bytes"
    if parent >= 0 and tracer.span_name(parent) == "durability.log.append":
        key = "journal_bytes"
    tracer.counts[key] += len(result)


def _count_emitted(tracer: Tracer, args: Any, result: Any) -> None:
    tracer.counts["emitted"] += len(result) if isinstance(result, list) else 1


def _count_delivered(tracer: Tracer, args: Any, result: Any) -> None:
    tracer.counts["delivered"] += len(result)


def _count_consume(tracer: Tracer, args: Any, result: Any) -> None:
    cls = type(args[0]).__name__
    tracer.counts[f"{cls}.in"] += 1
    tracer.counts[f"{cls}.out"] += len(result)


def _count_consume_batch(tracer: Tracer, args: Any, result: Any) -> None:
    cls = type(args[0]).__name__
    tracer.counts[f"{cls}.in"] += len(args[2])
    tracer.counts[f"{cls}.out"] += len(result)


def _operator_name(operator: Any) -> str:
    return f"awareness.operators.{type(operator).__name__}"


def targets(facade_only: bool) -> List[Target]:
    """The calls to wrap.  ``facade_only`` (process backends) keeps to
    the calls the facade process makes; worker-side layers are read from
    the serial workloads instead."""
    from repro.durability.log import FrameLog
    from repro.durability.supervisor import SupervisedShard
    from repro.parallel.codec import BinaryDecoder, BinaryEncoder
    from repro.parallel.federation import ShardedFederation
    from repro.parallel.mux import ChannelMultiplexer
    from repro.parallel.router import ShardRouter

    found: List[Target] = [
        (ShardRouter, "shard_for", "parallel.router.shard_for", None),
        (BinaryEncoder, "encode_frame", "parallel.codec.encode",
         _count_encoded),
        (BinaryDecoder, "decode_payload", "parallel.codec.decode", None),
        (ChannelMultiplexer, "gather", "parallel.mux.gather", None),
        (ChannelMultiplexer, "wait_for_credit", "parallel.mux.wait_for_credit",
         None),
        (ShardedFederation, "ingest", "parallel.federation.ingest", None),
        (ShardedFederation, "drain", "parallel.federation.drain", None),
        (FrameLog, "append", "durability.log.append", None),
        (FrameLog, "sync", "durability.log.sync", None),
        (SupervisedShard, "take_snapshot", "durability.supervisor.take_snapshot",
         None),
        (SupervisedShard, "recover", "durability.supervisor.recover", None),
    ]
    if facade_only:
        return found

    from repro.awareness.delivery import DeliveryAgent
    from repro.awareness.operators.base import EventOperator
    from repro.coordination.engine import CoordinationEngine
    from repro.core.engine import CoreEngine
    from repro.events.bus import EventBus
    from repro.events.event import Event
    from repro.events.producers import EventProducer
    from repro.events.queues import DeliveryQueue, MemoryDeliveryQueue
    from repro.federation.clients import ParticipantClient
    from repro.parallel.host import RecordingDeliveryQueue, ShardHost

    found += [
        (ShardHost, "ingest", "parallel.host.ingest", None),
        (ShardHost, "drain_results", "parallel.host.drain_results", None),
        (EventProducer, "emit", "events.producers.emit", _count_emitted),
        (EventProducer, "emit_batch", "events.producers.emit_batch",
         _count_emitted),
        (EventBus, "publish", "events.bus.publish", None),
        (EventBus, "publish_batch", "events.bus.publish_batch", None),
        (Event, "derive", "events.event.derive", None),
        (Event, "__init__", "events.event.validate", None),
        (EventOperator, "consume", _operator_name, _count_consume),
        (EventOperator, "consume_batch", _operator_name, _count_consume_batch),
        (DeliveryAgent, "deliver", "awareness.delivery.deliver",
         _count_delivered),
        (CoreEngine, "resolve_role", "core.resolve_role", None),
        (CoreEngine, "contexts_for_instance", "core.contexts_for_instance",
         None),
        (CoreEngine, "change_state", "core.change_state", None),
    ]
    for queue_class in (DeliveryQueue, MemoryDeliveryQueue,
                        RecordingDeliveryQueue):
        for attr in ("enqueue", "retrieve"):
            if attr in queue_class.__dict__:
                found.append((queue_class, attr, f"events.queues.{attr}", None))
    for call in COORDINATION_CALLS:
        owner = ParticipantClient if call in ("check_awareness", "work_items") \
            else CoordinationEngine
        found.append((owner, call, f"coordination.{call}", None))
    return found


# -- metrics ------------------------------------------------------------------------


def layer_of(span_name: str) -> str:
    best = ""
    for layer in LAYERS:
        if (span_name == layer or span_name.startswith(layer + ".")) and \
                len(layer) > len(best):
            best = layer
    return best or "other"


def layer_metrics(
    tracer: Tracer,
    events: float,
    ops: float,
    wall_us: float,
    stalls: float,
    instances: float,
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """The per-layer metrics plus the raw per-span summary, over the
    tracer's timed phase; ``trace.overhead_ratio`` needs the untraced
    repetition and is added by ``run.py``.

    ``events`` divides the per-event figures (events ingested at the
    facade, or primitive events emitted by an enactment system); ``ops``
    divides the per-operation figures; ``wall_us`` is the traced timed
    section, the base of every ``self_share``.
    """
    spans = tracer.summary(RENAME)
    counts = tracer.timed_counts

    def row(name: str) -> Dict[str, float]:
        return spans.get(name, {"calls": 0, "total_us": 0.0, "self_us": 0.0})

    def per(value: float, base: float) -> float:
        return value / base if base else 0.0

    def self_sum(*names: str) -> float:
        return sum(row(name)["self_us"] for name in names)

    def mean_self(name: str) -> float:
        r = row(name)
        return per(r["self_us"], r["calls"])

    def mean_total(name: str) -> float:
        r = row(name)
        return per(r["total_us"], r["calls"])

    m: Dict[str, float] = {
        "parallel.router.us_per_event": per(
            row("parallel.router.shard_for")["total_us"], events),
        "parallel.codec.encode_us_per_event": per(
            row("parallel.codec.encode")["self_us"], events),
        "parallel.codec.decode_us_per_event": per(
            row("parallel.codec.decode")["self_us"], events),
        "parallel.codec.bytes_per_event": per(
            counts["encoded_bytes"], events),
        "parallel.mux.gather_wait_us": mean_total("parallel.mux.gather"),
        "parallel.mux.credit_wait_us": mean_total(
            "parallel.mux.wait_for_credit"),
        "parallel.mux.stalls": stalls,
        "parallel.federation.ingest_self_us_per_event": per(
            row("parallel.federation.ingest")["self_us"], events),
        "parallel.federation.drain_self_us": mean_self(
            "parallel.federation.drain"),
        "parallel.host.drain_results_us": mean_total(
            "parallel.host.drain_results"),
        "events.producers.self_us_per_event": per(
            self_sum("events.producers.emit", "events.producers.emit_batch"),
            events),
        "events.bus.self_us_per_event": per(
            self_sum("events.bus.publish", "events.bus.publish_batch"), events),
        "events.event.derive_calls": row("events.event.derive")["calls"],
        "events.event.derive_self_us_per_event": per(
            row("events.event.derive")["self_us"], events),
        "events.event.validated_calls": row("events.event.validate")["calls"],
        "events.event.validate_self_us_per_event": per(
            row("events.event.validate")["self_us"], events),
    }
    for cls in OPERATOR_CLASSES:
        prefix = f"awareness.operators.{cls}"
        n_in, n_out = counts[f"{cls}.in"], counts[f"{cls}.out"]
        m[f"{prefix}.events_in"] = n_in
        m[f"{prefix}.events_out"] = n_out
        m[f"{prefix}.selectivity"] = per(n_out, n_in)
        m[f"{prefix}.self_us_per_event"] = per(row(prefix)["self_us"], events)
    m.update({
        "awareness.delivery.notifications": counts["delivered"],
        "awareness.delivery.self_us": mean_self("awareness.delivery.deliver"),
        "events.queues.self_us": per(
            self_sum("events.queues.enqueue", "events.queues.retrieve"),
            row("events.queues.enqueue")["calls"]
            + row("events.queues.retrieve")["calls"]),
        "core.resolve_role.calls": row("core.resolve_role")["calls"],
        "core.contexts_for_instance.self_us_per_op": per(
            row("core.contexts_for_instance")["self_us"], ops),
        "core.contexts_for_instance.self_share": per(
            row("core.contexts_for_instance")["self_us"], wall_us),
        "core.change_state.self_us_per_op": per(
            row("core.change_state")["self_us"], ops),
        "core.instances_total": instances,
    })
    for call in COORDINATION_CALLS:
        m[f"coordination.{call}.self_us"] = mean_self(f"coordination.{call}")
    m.update({
        "durability.log.append_us_per_event": per(
            row("durability.log.append")["total_us"], events),
        "durability.log.bytes_per_event": per(counts["journal_bytes"], events),
        "durability.supervisor.snapshot_us": mean_total(
            "durability.supervisor.take_snapshot"),
        "durability.supervisor.recover_us": mean_total(
            "durability.supervisor.recover"),
    })
    layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for name, r in spans.items():
        layer = layer_of(name)
        if layer in layer_self:
            layer_self[layer] += r["self_us"]
    for layer in LAYERS:
        m[f"{layer}.self_share"] = per(layer_self[layer], wall_us)
    m["trace.spans"] = tracer.span_count()
    return m, spans
