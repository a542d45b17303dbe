"""The four benchmark workloads, driven through the public API.

Each ``run_*`` function performs one repetition in the current
interpreter: it builds its inputs from the seed, sets the system up
(timed), runs the timed phase and returns plain data -- timings, the
notifications it saw, and the operations that failed.  Stream references
(:func:`stream_reference`) are computed separately, once per benchmark
invocation, by the orchestrator in ``run.py``.

Stream workloads use :class:`~repro.workloads.generator.ShardStreamWorkload`
(filter -> count -> edge chains per task force, global delivery roles):

* ``stream-serial``  -- 1-shard serial backend, closed loop;
* ``stream-sharded`` -- 2-shard process backend, open loop over a fixed
  ladder of rates, one shard's forces weighted heavier;
* ``stream-durable`` -- 2-shard process backend with a write-ahead
  journal, closed loop, alternating workers SIGKILLed at fixed offsets.

``enact-taskforce`` runs the Section 5.4 task-force flow through one
long-lived :class:`~repro.federation.system.EnactmentSystem`.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import signal
import tempfile
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from repro.parallel import ShardConfig, ShardedFederation, ShardRouter
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

WORKLOADS = ("stream-serial", "stream-sharded", "enact-taskforce",
             "stream-durable")

#: Window chains per task force and members per delivery team.
WINDOWS = 4
MEMBERS = 3
#: Force lengths are ``events_per_force * w`` with ``w`` cycling through
#: ``1..WEIGHT_SPAN``, so forces cross their thresholds at different
#: points of the stream instead of all at once.  The seed shuffles which
#: force gets which weight (and the interleave), never the total.
WEIGHT_SPAN = 6

#: ``(forces, events_per_force)`` per stream workload.
STREAM_SIZE = {
    "stream-serial": (100, 80),
    "stream-sharded": (320, 28),
    "stream-durable": (100, 80),
}
#: Events per ingest call in the closed loops.  ``stream-durable`` sends
#: smaller chunks, so each shard journals enough frames per repetition
#: to pass the default snapshot cadence (256 frames) about twice.
CHUNK = {"stream-serial": 256, "stream-durable": 48}

#: Open-loop rate ladder of ``stream-sharded``: ``(events/s, share of
#: --seconds)`` per rung.  One pass takes 0.45 of ``--seconds``, so a
#: run holds two repetitions.  The rungs bracket today's 2-shard capacity
#: (9k-12k events/s measured on 2 shared cores); what the last rung
#: achieves is a lower bound of the capacity.  Latency is reported at
#: ``LATENCY_RATE``.  A rung counts as sustained when its p99 stays
#: within ``LATENCY_LIMIT_MS``, its generator ran at most that late, and
#: its backlog did not grow past that many milliseconds of arrivals.
LADDER = ((1000, 0.05), (2000, 0.275), (4000, 0.075), (12000, 0.05))
LATENCY_RATE = 2000
LATENCY_LIMIT_MS = 100.0
#: The open loop's tick: every tick ingests what is due, then drains.
TICK_S = 0.005
#: Extra weight of the forces routed to shard 0 in ``stream-sharded``.
HOT_SHARD_WEIGHT = 2

#: Set-up samples per repetition, taken half before and half after the
#: timed phase: a shared host's speed can swing within a second, so
#: samples from two moments of a repetition give a steadier median than
#: one burst.
SETUP_TRIALS = {
    "stream-serial": 2,
    "stream-sharded": 2,
    "enact-taskforce": 9,
    "stream-durable": 2,
}

#: SIGKILLs per ``stream-durable`` repetition, alternating shards; the
#: default supervisor allows three recoveries per shard.
KILLS = 2

#: Task forces per ``enact-taskforce`` repetition, and its cast.
TASK_FORCES = 1300
POOL = 16
TEAM = 4
REQUESTS = 2
DEADLINE_MOVES = 2

NotificationKey = Tuple[int, str, str, str, Optional[str]]


# -- stream inputs -----------------------------------------------------------------


def stream_workload(name: str, seed: int) -> ShardStreamWorkload:
    forces, events_per_force = STREAM_SIZE[name]
    weights = [1 + force % WEIGHT_SPAN for force in range(forces)]
    random.Random(seed).shuffle(weights)
    if name == "stream-sharded":
        probe = ShardStreamWorkload(ShardStreamConfig(forces=forces))
        for force in range(forces):
            key = probe.context_name(force)
            if ShardRouter.shard_for_key(key, 2) == 0:
                weights[force] += HOT_SHARD_WEIGHT
    return ShardStreamWorkload(
        ShardStreamConfig(
            forces=forces,
            windows_per_force=WINDOWS,
            events_per_force=events_per_force,
            members_per_team=MEMBERS,
            seed=seed,
            force_weights=tuple(weights),
        )
    )


def ladder_events(seconds: float) -> List[int]:
    """Events sent per rung for a run of *seconds*."""
    return [int(rate * share * seconds) for rate, share in LADDER]


def stream_events(name: str, seed: int, seconds: float) -> Tuple[
        ShardStreamWorkload, List[Any]]:
    workload = stream_workload(name, seed)
    events = workload.events()
    if name == "stream-sharded":
        needed = sum(ladder_events(seconds))
        if needed > len(events):
            raise ValueError(
                f"the stream holds {len(events)} events; the ladder needs "
                f"{needed}"
            )
        events = events[:needed]
    return workload, events


def key_of(notification: Any) -> NotificationKey:
    return (
        notification.time,
        notification.participant_id,
        notification.schema_name,
        notification.description,
        notification.process_instance_id,
    )


def stream_reference(name: str, seed: int, seconds: float) -> List[NotificationKey]:
    """The serial-backend notifications for the workload's exact input:
    one ingest of the whole stream, one drain."""
    workload, events = stream_events(name, seed, seconds)
    with ShardedFederation(workload.blueprint(), ShardConfig()) as federation:
        federation.ingest(events)
        federation.drain()
        return [key_of(n) for n in federation.delivered]


# -- shared helpers -------------------------------------------------------------------


def quantile(values: List[float], q: float) -> float:
    """The sample nearest rank ``q`` of *values* (not interpolated)."""
    ordered = sorted(values)
    index = round(q * (len(ordered) - 1))
    return ordered[min(len(ordered) - 1, max(0, index))]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (workers)."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def settle() -> None:
    """Collect garbage, then move every surviving object (the generated
    inputs, the system set up so far) out of the collector's generations.

    The collector stays on for what the timed phase allocates; it just
    no longer rescans the benchmark's own inputs on every full
    collection -- in this process or in shard workers forked from it.
    """
    gc.collect()
    gc.freeze()


def setup_again(build, trials: int, close=None) -> List[float]:
    """Set-up samples taken after the timed phase; every system built is
    closed again."""
    system, samples = timed_setup(build, trials, close)
    if close is not None:
        close(system)
    return samples


def timed_setup(build, trials: int, close=None) -> Tuple[Any, List[float]]:
    """Build the system ``trials`` times; close all but the last.

    Set-up runs from construction until the first drain (or barrier)
    returns; the returned system is the last one built.
    """
    samples: List[float] = []
    system = None
    for __ in range(trials):
        if system is not None and close is not None:
            close(system)
        settle()
        started = time.perf_counter()
        system = build()
        samples.append(time.perf_counter() - started)
    return system, samples


def _federation_factory(workload: ShardStreamWorkload, config_kwargs: Dict[str, Any]):
    def build() -> ShardedFederation:
        kwargs = dict(config_kwargs)
        if kwargs.pop("durable", False):
            kwargs["durable_dir"] = tempfile.mkdtemp(
                prefix="durable-", dir=scratch_dir()
            )
        federation = ShardedFederation(workload.blueprint(), ShardConfig(**kwargs))
        federation.drain()
        return federation

    return build


def scratch_dir() -> str:
    """Benchmark-private working directory inside the checkout."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "tmp")
    os.makedirs(path, exist_ok=True)
    return path


def _close(federation: ShardedFederation) -> None:
    durable_dir = federation.config.durable_dir
    federation.close()
    if durable_dir:
        shutil.rmtree(durable_dir, ignore_errors=True)


# -- closed-loop streams -----------------------------------------------------------------


def run_stream_closed(name: str, seed: int, seconds: float,
                      tracer: Any = None) -> Dict[str, Any]:
    workload, events = stream_events(name, seed, seconds)
    durable = name == "stream-durable"
    config = (
        {"shards": 2, "backend": "process", "durable": True}
        if durable
        else {"shards": 1, "backend": "serial"}
    )
    build = _federation_factory(workload, config)
    federation, setups = timed_setup(build, SETUP_TRIALS[name], close=_close)
    kill_at = [len(events) * (k + 1) // (KILLS + 1) for k in range(KILLS)] \
        if durable else []
    latencies: List[float] = []
    notify: List[float] = []
    recoveries: List[float] = []
    delivered: List[NotificationKey] = []
    failed = 0
    stalls0 = _stalls(federation)
    try:
        settle()
        if tracer is not None:
            tracer.begin()
        cpu0 = time.process_time()
        started = time.perf_counter()
        chunk = CHUNK[name]
        for wave, start in enumerate(range(0, len(events), chunk)):
            if tracer is not None:
                tracer.wave = wave
            wave_events = events[start:start + chunk]
            t0 = time.perf_counter()
            federation.ingest(wave_events)
            out = federation.drain()
            t1 = time.perf_counter()
            latencies.extend([(t1 - t0) * 1e3] * len(wave_events))
            notify.extend([(t1 - t0) * 1e3] * len(out))
            delivered.extend(key_of(n) for n in out)
            done = start + chunk
            while kill_at and done >= kill_at[0]:
                shard = federation.shards[len(recoveries) % 2]
                kill_at.pop(0)
                os.kill(shard.inner.process.pid, signal.SIGKILL)
                shard.inner.process.join(10.0)
                t0 = time.perf_counter()
                out = federation.drain()
                recoveries.append((time.perf_counter() - t0) * 1e3)
                delivered.extend(key_of(n) for n in out)
        elapsed = time.perf_counter() - started
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.end()
        stats = federation.stats()
        if durable and stats.get("recoveries", 0) != KILLS:
            failed += abs(KILLS - stats.get("recoveries", 0))
    finally:
        stalls = _stalls(federation) - stalls0
        _close(federation)
    rss_mb = peak_rss_mb()
    setups += setup_again(build, SETUP_TRIALS[name], close=_close)
    return {
        "setup_s": setups,
        "measured_s": elapsed,
        "cpu_s": cpu,
        "units": len(events),
        "throughput": len(events) / elapsed,
        "latencies_ms": latencies,
        "notify_ms": notify,
        "attempted": len(events),
        "failed_ops": failed,
        "notifications": delivered,
        "expected_count": workload.expected_notifications(),
        "recovery_ms": recoveries,
        "stalls": stalls,
        "instances": 0,
        "rss_mb": rss_mb,
    }


def _stalls(federation: ShardedFederation) -> float:
    """Backpressure stalls counted so far in this process."""
    from repro.observability.registry import default_registry

    registry = default_registry()
    return sum(
        registry.value("backpressure_stalls_total", (str(shard),))
        for shard in range(federation.config.shards)
    )


# -- open-loop stream -----------------------------------------------------------------------


def run_stream_sharded(name: str, seed: int, seconds: float,
                       tracer: Any = None) -> Dict[str, Any]:
    workload, events = stream_events(name, seed, seconds)
    build = _federation_factory(workload, {"shards": 2, "backend": "process"})
    federation, setups = timed_setup(build, SETUP_TRIALS[name], close=_close)
    rungs: List[Dict[str, Any]] = []
    delivered: List[NotificationKey] = []
    wave = 0
    stalls0 = _stalls(federation)
    try:
        settle()
        if tracer is not None:
            tracer.begin()
        cpu0 = time.process_time()
        started = time.perf_counter()
        position = 0
        for (rate, __), count in zip(LADDER, ladder_events(seconds)):
            segment = events[position:position + count]
            position += count
            rung, keys, wave = _open_loop_rung(
                federation, segment, rate, tracer, wave
            )
            rungs.append(rung)
            delivered.extend(keys)
        elapsed = time.perf_counter() - started
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.end()
    finally:
        stalls = _stalls(federation) - stalls0
        _close(federation)
    rss_mb = peak_rss_mb()
    setups += setup_again(build, SETUP_TRIALS[name], close=_close)
    middle = next(r for r in rungs if r["rate"] == LATENCY_RATE)
    latencies, notify = middle["latencies_ms"], middle["notify_ms"]
    for rung in rungs:
        del rung["latencies_ms"], rung["notify_ms"]
    sustained = 0
    for rung in rungs:
        if rung["sustained"]:
            sustained = rung["rate"]
    return {
        "setup_s": setups,
        "measured_s": elapsed,
        "cpu_s": cpu,
        "units": len(events),
        # Capacity: what the overload rung achieved.
        "throughput": rungs[-1]["achieved_eps"],
        "latencies_ms": latencies,
        "notify_ms": notify,
        "attempted": len(events),
        "failed_ops": 0,
        "notifications": delivered,
        "expected_count": None,
        "rungs": rungs,
        "sustained_eps": sustained,
        "stalls": stalls,
        "instances": 0,
        "rss_mb": rss_mb,
    }


def _open_loop_rung(federation: ShardedFederation, segment: List[Any],
                    rate: int, tracer: Any, wave: int):
    """Send *segment* at *rate*: event ``i`` is due ``i / rate`` after
    the rung starts (its logical time minus the segment's first time).
    Every ``TICK_S`` the loop ingests what is due, then drains; a tick
    that overruns starts the next one at once.  Generator lateness is how
    long past ``due + TICK_S`` the oldest unsent event waited.  Backlog
    growth is the number of events due but unsent when the rung's last
    event falls due: a rung starts with no backlog, because the rung
    before it sent and drained every event before returning."""
    first_time = segment[0].time
    n = len(segment)
    start = time.perf_counter()
    end_due = start + (segment[-1].time - first_time) / rate
    next_tick = start
    sent = 0
    latencies: List[float] = []
    notify: List[float] = []
    keys: List[NotificationKey] = []
    lateness = 0.0
    backlog_end: Optional[int] = None
    while sent < n:
        now = time.perf_counter()
        if now < next_tick:
            time.sleep(next_tick - now)
            now = time.perf_counter()
        next_tick = max(next_tick + TICK_S, now - TICK_S)
        due = min(n, int((now - start) * rate) + 1)
        if due <= sent:
            continue
        lateness = max(lateness, now - (start + sent / rate) - TICK_S)
        if tracer is not None:
            tracer.wave = wave
        wave += 1
        federation.ingest(segment[sent:due])
        out = federation.drain()
        finished = time.perf_counter()
        # Event i is due at start + i / rate.
        latencies.extend((finished - start) * 1e3 - i * 1e3 / rate
                         for i in range(sent, due))
        sent = due
        for notification in out:
            due_at = start + (notification.time - first_time) / rate
            notify.append((finished - due_at) * 1e3)
            keys.append(key_of(notification))
        if backlog_end is None and finished >= end_due:
            # Events due by the rung's last due time but not yet sent.
            backlog_end = n - sent
    finished = time.perf_counter()
    if backlog_end is None:
        backlog_end = 0
    p99 = quantile(notify, 0.99) if notify else 0.0
    allowed_backlog = rate * LATENCY_LIMIT_MS / 1e3
    rung = {
        "rate": rate,
        "events": n,
        "notifications": len(notify),
        "p50_ms": quantile(notify, 0.5) if notify else 0.0,
        "p99_ms": p99,
        "lateness_ms": lateness * 1e3,
        "backlog_end": backlog_end,
        "achieved_eps": n / (finished - start),
        "latencies_ms": latencies,
        "notify_ms": notify,
    }
    rung["sustained"] = (
        p99 <= LATENCY_LIMIT_MS
        and lateness * 1e3 <= LATENCY_LIMIT_MS
        and backlog_end <= allowed_backlog
    )
    return rung, keys, wave


# -- enactment -------------------------------------------------------------------------------


class TaskForceRunner:
    """The Section 5.4 flow with per-operation timing and ground truth.

    Ground truth follows the crisis workload's rule: a task-force
    deadline move notifies every requestor whose live request deadline is
    at or after the new task-force deadline, at the logical time of the
    move.
    """

    def __init__(self, seed: int) -> None:
        from repro.core.roles import Participant
        from repro.federation.system import EnactmentSystem
        from repro.workloads.taskforce import TaskForceApplication

        self.rng = random.Random(seed)
        self.system = EnactmentSystem()
        self.app = TaskForceApplication(self.system, max_requests=REQUESTS)
        self.app.install_awareness()
        roles = self.system.core.roles
        role = roles.define_role("epidemiologist")
        self.pool = []
        for index in range(POOL):
            participant = roles.register_participant(
                Participant(f"epi-{index}", f"epidemiologist-{index}")
            )
            role.add_member(participant)
            self.pool.append(participant)
        self.clients = {
            p.participant_id: self.system.participant_client(p) for p in self.pool
        }
        self.expected: Counter = Counter()
        self.received: Counter = Counter()
        self.latencies: List[float] = []
        self.ops = 0
        self.failed = 0
        self.tracer: Any = None

    def _op(self, call, *args):
        if self.tracer is not None:
            self.tracer.wave = self.ops
        self.ops += 1
        t0 = time.perf_counter()
        try:
            result = call(*args)
        except Exception:  # noqa: BLE001 - a failed operation is counted
            self.failed += 1
            result = None
        self.latencies.append((time.perf_counter() - t0) * 1e3)
        return result

    def _read_awareness(self, participant_id: str) -> None:
        notifications = self._op(self.clients[participant_id].check_awareness)
        for notification in notifications or ():
            self.received[
                (notification.participant_id, notification.time,
                 notification.schema_name)
            ] += 1

    def task_force(self) -> None:
        from repro.workloads.taskforce import AWARENESS_SCHEMA_NAME

        rng = self.rng
        clock = self.system.clock
        members = rng.sample(self.pool, TEAM)
        clock.advance(rng.randint(1, 4))
        base_deadline = clock.now() + 100
        task_force = self._op(
            self.app.create_task_force, members[0], members, base_deadline
        )
        if task_force is None:
            return
        live = []
        for index in range(REQUESTS):
            requestor = members[1 + index % (TEAM - 1)]
            clock.advance(rng.randint(1, 3))
            request = self._op(
                self.app.request_information, task_force, requestor,
                base_deadline - rng.randint(10, 40),
            )
            if request is not None:
                live.append(request)
        current = base_deadline
        for __ in range(DEADLINE_MOVES):
            clock.advance(rng.randint(1, 5))
            if rng.random() < 0.5 and live:
                new_deadline = min(r.deadline for r in live) - rng.randint(0, 5)
            else:
                new_deadline = current + rng.randint(5, 20)
            self._op(self.app.change_task_force_deadline, task_force, new_deadline)
            current = new_deadline
            for request in live:
                if new_deadline <= request.deadline:
                    self.expected[
                        (request.requestor.participant_id, clock.now(),
                         AWARENESS_SCHEMA_NAME)
                    ] += 1
        for member in members:
            self._read_awareness(member.participant_id)
            self._op(self.clients[member.participant_id].work_items)
        for request in live:
            clock.advance(1)
            self._op(self.app.complete_request, request)
        for member in members:
            self._op(self.clients[member.participant_id].claim_and_complete_all)

    def finish(self) -> Tuple[int, int]:
        """Read every remaining notification; return (missing, extra)."""
        for participant_id, client in self.clients.items():
            for notification in client.check_awareness():
                self.received[
                    (notification.participant_id, notification.time,
                     notification.schema_name)
                ] += 1
        missing = sum((self.expected - self.received).values())
        extra = sum((self.received - self.expected).values())
        return missing, extra


def run_enact(name: str, seed: int, seconds: float,
              tracer: Any = None) -> Dict[str, Any]:
    def build() -> TaskForceRunner:
        return TaskForceRunner(seed)

    runner, setups = timed_setup(build, SETUP_TRIALS[name])
    runner.tracer = tracer
    settle()
    if tracer is not None:
        tracer.begin()
    cpu0 = time.process_time()
    started = time.perf_counter()
    for __ in range(TASK_FORCES):
        runner.task_force()
    elapsed = time.perf_counter() - started
    cpu = time.process_time() - cpu0
    if tracer is not None:
        tracer.end()
    missing, extra = runner.finish()
    rss_mb = peak_rss_mb()
    setups += setup_again(build, SETUP_TRIALS[name])
    return {
        "setup_s": setups,
        "measured_s": elapsed,
        "cpu_s": cpu,
        "units": runner.ops,
        "throughput": runner.ops / elapsed,
        "latencies_ms": runner.latencies,
        "attempted": runner.ops,
        "failed_ops": runner.failed,
        "missing": missing,
        "extra": extra,
        "expected_count": sum(runner.expected.values()),
        "instances": len(runner.system.core.instances()),
        "stalls": 0,
        "rss_mb": rss_mb,
    }


RUNNERS = {
    "stream-serial": run_stream_closed,
    "stream-durable": run_stream_closed,
    "stream-sharded": run_stream_sharded,
    "enact-taskforce": run_enact,
}
