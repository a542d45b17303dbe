"""The shard side of the frame protocol, and the worker process.

:class:`FrameHandler` is the one per-frame dispatch over a
:class:`~repro.parallel.host.ShardHost`.  ``worker_main`` (the forked
child's entry point) serves it frames from its input pipe; a
:class:`~repro.parallel.mux.LoopbackChannel` (serial backend) hands it
frames by reference (DESIGN note 14).  A shard only ever *writes* in
response to requests (plus credit acks), so the channel cannot
deadlock — the parent's event sends are pipelined fire-and-forget and
every read the parent performs has exactly one pending response.

The worker's channel opens with the facade's hello bytes (see
:func:`~repro.parallel.codec.read_hello`); every frame after it, in both
directions, is a :mod:`repro.parallel.codec` binary frame.  Protocol
frames:

* ``{"kind": "events", "events": [...], "seq": N,
  "trace": [tid, psid, 0|1]}`` — ingest a routed batch; ``seq`` is the
  facade's per-shard frame sequence number (the credit window's unit),
  and the optional ``trace`` context carries the facade's head-sampling
  decision, honored verbatim (no re-sampling);
* ``{"kind": "deploy", "spec": {...}}`` / ``{"kind": "undeploy",
  "spec_id": ...}`` — detector lifecycle;
* ``{"kind": "stats"}`` → ``{"kind": "stats", "stats": {...},
  "errors": [...], "acked": N, "observability": {...}}``;
* ``{"kind": "flush"}`` → ``{"kind": "results", "notifications": [...],
  "acked": N, "observability": {...}}``
  — drain the recorded notification stream (sequence numbers included).

Every response piggybacks ``acked`` — the highest event-frame ``seq``
fully ingested — so the facade retires in-flight credits on reads it
already performs.  When ``ack_every`` event frames arrive with no read
pending (a pure write stream), the worker volunteers a standalone
``{"kind": "ack", "acked": N}`` so the window never starves the sender
of credits.

Both read responses piggyback an ``observability`` payload — the shard's
full metrics-registry snapshot, its buffered sampled span batches, and
(when ``ship_logs`` is on) the structured-log records past the shipping
cursor — so the facade's federation views refresh on every read without
extra round trips, and span/log shipping rides frames that already
exist;
* ``{"kind": "snapshot"}`` → ``{"kind": "snapshot", "state": {...}}`` —
  the host's recoverable state (``state`` is ``None`` when a live
  operator holds state the codec cannot express; the supervisor then
  keeps the full journal instead);
* ``{"kind": "restore", "state": {...}}`` — load a snapshot payload
  into the freshly booted host (sent once, right after fork, before the
  journal tail is replayed);
* ``{"kind": "shutdown"}`` → ``{"kind": "bye"}`` and a clean exit — the
  poison pill.

Recoverable per-frame failures (a bad spec, an unroutable event type)
are recorded and reported with the next ``stats`` response; anything
else escapes :meth:`FrameHandler.handle` — a worker then writes a final
``error`` frame and exits nonzero so the parent sees EOF, not a hang,
and a loopback marks its channel dead the same way.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Mapping

from ..errors import ReproError, WireError
from ..observability import INSTRUMENTATION as _OBS
from ..observability import STRUCTURED_LOG as _SLOG
from .codec import BinaryFrameReader, BinaryFrameWriter, read_hello
from .host import FederationBlueprint, ShardHost, ShardSpec
from .wire import ACKED_KEY, SEQ_KEY, ack_frame, error_frame, extract_trace

#: Where a handler writes responses: a pipe writer or a channel's routing.
Send = Callable[[Dict[str, Any]], None]


class FrameHandler:
    """One shard's frame server, on either backend.

    ``shared_registry``: the handler runs in the facade's process,
    whose default registry the facade merges itself, so only the
    pipeline's system registry ships.  The handler never keeps or
    mutates a frame it is given.
    """

    def __init__(
        self,
        host: ShardHost,
        ack_every: int = 1,
        ship_logs: bool = False,
        shared_registry: bool = False,
    ) -> None:
        self.host = host
        host.ship_logs = ship_logs
        self._ack_every = max(1, ack_every)
        self._ship_logs = ship_logs
        self._shared_registry = shared_registry
        #: Recoverable failures, reported with the next ``stats``.
        self.errors: List[str] = []
        #: Event frames since the last ack (piggybacked or standalone).
        self._unacked = 0
        #: The shipped-records high-watermark: records at or below it
        #: have already crossed the channel (or were re-emitted during
        #: replay after a snapshot restore reset the emission counter).
        self._log_cursor = 0

    def _observability(self) -> Dict[str, Any]:
        host = self.host
        payload: Dict[str, Any] = {
            "registry": (
                host.system.metrics.snapshot()
                if self._shared_registry
                else host.metrics_snapshot()
            ),
            "spans": host.drain_spans(),
        }
        if self._ship_logs:
            logs = host.drain_logs(self._log_cursor)
            self._log_cursor = int(logs["cursor"])
            payload["logs"] = logs
        return payload

    def _read_response(self, response: Dict[str, Any]) -> Dict[str, Any]:
        """Piggyback the cumulative ack and the observability payload."""
        if self.host.last_seq is not None:
            response[ACKED_KEY] = self.host.last_seq
            self._unacked = 0
        response["observability"] = self._observability()
        return response

    def handle(self, frame: Mapping[str, Any], send: Send) -> bool:
        """Serve one frame; ``False`` once the shutdown pill is served."""
        host = self.host
        kind = frame.get("kind")
        try:
            if kind == "events":
                seq = frame.get(SEQ_KEY)
                if seq is not None:
                    self._unacked += 1
                try:
                    host.ingest(frame["events"], extract_trace(frame), seq=seq)
                finally:
                    # The frame consumed a credit even if ingest failed
                    # recoverably — ack it regardless, or the facade's
                    # window leaks shut.
                    if seq is not None and self._unacked >= self._ack_every:
                        send(ack_frame(seq))
                        self._unacked = 0
            elif kind == "deploy":
                host.deploy_spec(ShardSpec.from_wire(frame["spec"]))
            elif kind == "undeploy":
                host.undeploy_spec(frame["spec_id"])
            elif kind == "stats":
                response = {
                    "kind": "stats",
                    "stats": host.stats(),
                    "errors": self.errors,
                }
                self.errors = []
                send(self._read_response(response))
            elif kind == "flush":
                send(
                    self._read_response(
                        {"kind": "results", "notifications": host.drain_results()}
                    )
                )
            elif kind == "snapshot":
                try:
                    send({"kind": "snapshot", "state": host.snapshot_state()})
                except WireError:
                    # Operator state the codec cannot express: no
                    # snapshot.  The failed encode left the channel
                    # tables untouched, so the answer still decodes.
                    send({"kind": "snapshot", "state": None})
            elif kind == "restore":
                host.restore_state(frame["state"])
                # The restore moved the log's emission counter to the
                # snapshot's position; records below it are covered
                # state, not unshipped backlog, so the shipping cursor
                # must not count them as dropped.
                self._log_cursor = _SLOG.seq
            elif kind == "shutdown":
                send({"kind": "bye"})
                host.close()
                return False
            else:
                self.errors.append(f"unknown frame kind {kind!r}")
        except ReproError as error:
            # Recoverable: the pipeline is still consistent.  Report
            # with the next stats exchange instead of dying.
            self.errors.append(f"{kind}: {error}")
        return True


def worker_main(
    shard_id: int,
    shard_count: int,
    in_fd: int,
    out_fd: int,
    close_fds: List[int],
    options: Dict[str, Any],
    blueprint_wire: Dict[str, Any],
) -> None:
    """Serve one shard until the poison pill (or EOF) arrives."""
    # A fork copies every parent fd, including the pipes of sibling
    # workers forked earlier.  Holding those copies would keep a crashed
    # sibling's channel half-open (the parent would never see EOF), so
    # each worker first drops everything that is not its own pair.
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed
            pass

    # Instrumentation is process-global; the fork inherited the parent's
    # flag, so set it to what the shard config asks for, explicitly.
    if options.get("instrument"):
        _OBS.reset()
        _OBS.enable()
    else:
        _OBS.disable()
    # Structured logging is likewise process-global and inherited; a
    # log-shipping worker records into its own ring (no sink — the
    # facade drains over the frame protocol), others stay silent.
    ship_logs = bool(options.get("ship_logs"))
    _SLOG.clear()
    # The fork also inherited the parent's emission counter; a fresh
    # worker's stream starts at 1 so the handler's shipping cursor (and
    # the supervisor's replay watermark) line up with what this worker
    # emits.
    _SLOG.set_seq(0)
    _SLOG.enabled = ship_logs

    inp = os.fdopen(in_fd, "rb")
    out = os.fdopen(out_fd, "wb")
    exit_code = 0
    writer = BinaryFrameWriter(out)
    try:
        # The parent's hello bytes precede every frame on the event pipe.
        read_hello(inp)
        reader = BinaryFrameReader(inp)
        host = ShardHost(
            shard_id,
            shard_count,
            share_plans=bool(options.get("share_plans", True)),
        )
        host.apply_blueprint(FederationBlueprint.from_wire(blueprint_wire))
        handler = FrameHandler(
            host,
            ack_every=int(options.get("ack_every", 1)),
            ship_logs=ship_logs,
        )
        while True:
            frame = reader.read()
            # EOF (the parent vanished) is treated as shutdown.
            if frame is None or not handler.handle(frame, writer.write):
                break
    except BaseException as error:  # pragma: no cover - crash path
        exit_code = 1
        try:
            writer.write(error_frame(error))
        except OSError:
            pass
    finally:
        try:
            out.close()
        except OSError:  # pragma: no cover
            pass
        try:
            inp.close()
        except OSError:  # pragma: no cover
            pass
    os._exit(exit_code)
