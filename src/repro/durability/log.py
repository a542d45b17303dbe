"""The write-ahead frame log: length-prefixed frames on disk.

One :class:`FrameLog` is one append-only file of wire frames: the
:data:`JOURNAL_MAGIC` header followed by :mod:`repro.parallel.codec`
binary frames — byte for byte the encoding the worker pipe speaks, raw
events included.

Journals are *self-contained*: the interning tables start empty at the
first frame, every define-record is inline, and compaction rewrites the
file under a fresh encoder — a decoder starting at byte four replays any
cut.  Reopening a journal for append decodes the existing frames once
and seeds the append encoder with the decoder's tables, so new frames
keep referencing the established ids.

A file that does not start with the magic was written by the retired
JSON codec.  It is refused with a :class:`~repro.errors.DurabilityError`
naming the file, and left byte for byte unchanged: old durable
directories are not migrated.

Write policy is *coalescing with fsync batching*: appends accumulate in
a buffer that is written with a **single** ``os.write`` per fsync batch
(``journal_writes_total`` counts the physical writes), and ``os.fsync``
runs once per ``fsync_every`` appends and on :meth:`sync`.  A machine
crash — or now a facade-process crash mid-batch — can lose at most the
last ``fsync_every`` frames; with ``fsync_every=0`` every append is
written and flushed to the OS immediately (no coalescing, never
fsynced), preserving the pre-batching process-crash durability.

Frame *indices are absolute* (counted from the journal's creation):
snapshots record the absolute index they cover, and compaction — which
drops covered frames — preserves the numbering by writing a control
frame ``{"kind": "compacted", "base": N}`` as the new first frame, so a
compacted log is self-describing and offline tools need no sidecar.

A killed writer can leave a *torn* final frame (partial header or
payload).  :func:`scan` tolerates it: the log is valid up to the last
complete frame, and opening a log for append truncates the torn tail so
the next frame starts clean — the standard WAL repair rule.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Mapping, Tuple

from ..errors import DurabilityError, WireError
from ..observability import STRUCTURED_LOG as _SLOG
from ..observability import Counter, default_registry
from ..parallel.codec import BinaryDecoder, BinaryEncoder
from ..parallel.wire import MAX_FRAME_BYTES

#: Frame kind of the compaction control frame (never replayed).
CONTROL_COMPACTED = "compacted"

#: First bytes of a journal file.  Read as a length prefix the leading
#: ``0xC3`` byte would announce a ~3.2 GB frame, so the magic can never
#: be mistaken for the first frame of a headerless (JSON-era) journal.
JOURNAL_MAGIC = b"\xc3RJ1"


def _load(path: str) -> Tuple[List[Dict[str, Any]], int, bool, BinaryDecoder]:
    """Read a whole journal: ``(frames, valid_bytes, torn, decoder)``.

    Frames must decode in file order against one decoder (the interning
    tables are stream state); the decoder comes back so an append-side
    encoder can adopt its tables.
    """
    frames: List[Dict[str, Any]] = []
    torn = False
    decoder = BinaryDecoder()
    with open(path, "rb") as stream:
        head = stream.read(len(JOURNAL_MAGIC))
        if head and head != JOURNAL_MAGIC:
            raise DurabilityError(
                f"journal {path!r} lacks the binary journal magic: it was "
                f"written by the retired JSON codec and is refused, not "
                f"migrated (start from a fresh durable directory)"
            )
        valid = len(head)
        while True:
            header = stream.read(4)
            if not header:
                break
            if len(header) < 4:
                torn = True
                break
            length = int.from_bytes(header, "big")
            if length > MAX_FRAME_BYTES:
                torn = True
                break
            payload = stream.read(length)
            if len(payload) < length:
                torn = True
                break
            try:
                frames.append(decoder.decode_payload(payload))
            except WireError:
                torn = True
                break
            valid = stream.tell()
    return frames, valid, torn, decoder


def scan(path: str) -> Tuple[int, int, bool]:
    """Scan a frame log file: ``(file_frames, valid_bytes, torn_tail)``.

    ``file_frames`` counts every complete frame physically present
    (including a leading control frame); ``valid_bytes`` is the offset
    just past the last complete frame (the magic included);
    ``torn_tail`` is true when bytes beyond it exist but do not form a
    whole frame (a crash mid-append).
    """
    frames, valid, torn, __ = _load(path)
    return len(frames), valid, torn


def read_file_frames(path: str, skip: int = 0) -> List[Dict[str, Any]]:
    """Complete frames from file frame *skip* on (torn tail ignored),
    with native values (raw events included)."""
    frames = _load(path)[0]
    return frames[skip:]


def log_base(path: str) -> int:
    """The absolute index of the first payload frame in the file."""
    frames = _load(path)[0]
    if frames and frames[0].get("kind") == CONTROL_COMPACTED:
        return int(frames[0]["base"])
    return 0


def _journal_counters() -> Dict[str, Counter]:
    registry = default_registry()
    return {
        "writes": registry.counter(
            "journal_writes_total",
            "Physical journal writes (one per coalesced frame batch)",
        ),
    }


class FrameLog:
    """An append-only, write-coalescing, fsync-batched log of frames."""

    def __init__(self, path: str, fsync_every: int = 16) -> None:
        if fsync_every < 0:
            raise DurabilityError("fsync_every must be >= 0 (0 = never)")
        self.path = path
        self.fsync_every = fsync_every
        self._unsynced = 0
        self.appended = 0
        self.bytes_written = 0
        #: Physical write calls issued (appends - writes = syscalls the
        #: coalescing saved); also exported as ``journal_writes_total``.
        self.writes_total = 0
        self._metrics = _journal_counters()
        #: Pending encoded frames awaiting one coalesced write.
        self._buffer = bytearray()
        self._encoder = BinaryEncoder()
        #: Absolute index of the file's first payload frame (compaction
        #: shifts it forward; indices handed out stay stable).
        self.base = 0
        file_frames = 0
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        if not fresh:
            frames, valid, torn, decoder = _load(path)
            if frames and frames[0].get("kind") == CONTROL_COMPACTED:
                self.base = int(frames[0]["base"])
                file_frames = len(frames) - 1
            else:
                file_frames = len(frames)
            if torn:
                # Torn tail from a previous crashed writer: truncate to
                # the last complete frame so appends start clean.
                with open(path, "r+b") as repair:
                    repair.truncate(valid)
                _SLOG.emit(
                    "durability",
                    "journal_tail_truncated",
                    level="warning",
                    path=path,
                    frames=file_frames,
                    valid_bytes=valid,
                )
                # A tail torn mid-decode may have polluted the decoder's
                # intern tables with defines that just got truncated
                # away; re-read the repaired file so the seed matches
                # the surviving bytes.
                decoder = _load(path)[3]
            # Seed the append encoder with the tables the file's frames
            # established, so new refs stay consistent.
            self._encoder.seed(
                decoder.interned_strings, decoder.interned_compounds
            )
        #: Absolute count of payload frames ever appended (next index).
        self.frame_count = self.base + file_frames
        self._stream = open(path, "ab")
        if fresh:
            self._stream.write(JOURNAL_MAGIC)
            self._stream.flush()

    def _rewrite(self, frames: List[Dict[str, Any]]) -> None:
        """Atomically replace the file with *frames* under a fresh
        encoder, which then takes over for appends."""
        replacement = f"{self.path}.compact"
        self._encoder = BinaryEncoder()
        with open(replacement, "wb") as stream:
            stream.write(JOURNAL_MAGIC)
            for frame in frames:
                stream.write(self._encoder.encode_frame(frame))
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(replacement, self.path)

    # -- writing -----------------------------------------------------------

    def append(self, frame: Mapping[str, Any]) -> int:
        """Append one frame; returns its absolute index.

        The encoded frame lands in the coalescing buffer; it reaches
        the OS with the batch's single write (at the fsync point, or —
        with ``fsync_every=0`` — immediately).
        """
        data = self._encoder.encode_frame(frame)
        self._buffer += data
        self.bytes_written += len(data)
        index = self.frame_count
        self.frame_count += 1
        self.appended += 1
        self._unsynced += 1
        if self.fsync_every:
            if self._unsynced >= self.fsync_every:
                self.sync()
        else:
            # fsync_every=0 keeps the historical per-append OS write:
            # a facade crash then still loses nothing (only a machine
            # crash can).
            self._flush_buffer()
        return index

    def _flush_buffer(self) -> None:
        """One ``os.write`` for every frame buffered since the last."""
        if self._buffer:
            self._stream.write(self._buffer)
            self._stream.flush()
            self.writes_total += 1
            self._metrics["writes"].inc()
            del self._buffer[:]

    def sync(self) -> None:
        """Write the coalesced batch and force the batched fsync now."""
        self._flush_buffer()
        if self._unsynced:
            os.fsync(self._stream.fileno())
            self._unsynced = 0

    # -- reading / maintenance --------------------------------------------

    def tail(self, start: int) -> List[Dict[str, Any]]:
        """Frames from absolute index *start* on (buffered appends included)."""
        if start < self.base:
            raise DurabilityError(
                f"frames before index {self.base} were compacted away; "
                f"cannot read from {start}"
            )
        self._flush_buffer()
        skip = (start - self.base) + (1 if self.base else 0)
        return read_file_frames(self.path, skip)

    def compact(self, keep_from: int) -> int:
        """Drop frames below absolute index *keep_from* (atomic rewrite).

        Called after a snapshot: frames the snapshot already covers are
        dead weight for recovery.  The journal is rewritten under a
        **fresh** encoder — the interning tables reset at the compaction
        boundary, so the surviving cut is self-contained — and the fresh
        encoder takes over for subsequent appends.  Returns the
        surviving payload frame count.
        """
        if keep_from <= self.base:
            return self.frame_count - self.base
        if keep_from > self.frame_count:
            raise DurabilityError(
                f"cannot compact past the end of the log "
                f"({keep_from} > {self.frame_count} frames)"
            )
        self.sync()
        survivors = self.tail(keep_from)
        self._stream.close()
        self._rewrite(
            [{"kind": CONTROL_COMPACTED, "base": keep_from}] + survivors
        )
        self._stream = open(self.path, "ab")
        self.base = keep_from
        return len(survivors)

    def fileno(self) -> int:
        return self._stream.fileno()

    def close(self) -> None:
        if not self._stream.closed:
            self.sync()
            self._stream.close()

    def __enter__(self) -> "FrameLog":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()
