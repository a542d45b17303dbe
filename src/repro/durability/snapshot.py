"""Shard snapshots: a consistent cut of one shard's recoverable state.

A snapshot pairs a *journal position* with everything a fresh
:class:`~repro.parallel.host.ShardHost` needs to continue as if it had
processed every journal frame below that position:

* the **blueprint** as of the snapshot (participants, roles, and the
  specifications currently deployed — run-time deploys/undeploys
  included), so the rebuilt pipeline wires the same detector DAGs in the
  same order;
* the **host state** (:meth:`ShardHost.snapshot_state`): per-operator
  partition maps and counters, per-detector recognition counts, the
  absolute delivery sequence (so recovered notifications continue the
  per-shard numbering the deterministic merge sorts on), and the ingest
  counters.

The file is one :mod:`repro.parallel.codec` binary frame written under a
fresh encoder, so it is self-contained and operator state — held events
with provenance, int-keyed partitions, frozensets — round-trips as
native values.  Snapshots are written atomically (temp file + ``rename``
after fsync) so a crash mid-snapshot leaves the previous snapshot
intact, and carry the journal frame index they cover: recovery = boot
from snapshot, then replay the journal tail from that index.

Version-1 snapshots were JSON documents written by the retired JSON
codec.  They are refused with a :class:`~repro.errors.DurabilityError`,
never skipped: a compacted journal replayed without its snapshot would
silently resume from the wrong state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..errors import DurabilityError, WireError
from ..parallel.codec import BinaryDecoder, BinaryEncoder

SNAPSHOT_VERSION = 2


@dataclass
class ShardSnapshot:
    """One shard's persisted recovery point."""

    shard_id: int
    #: Absolute journal index of the first frame NOT covered: replay
    #: starts here.
    frame_index: int
    #: ``FederationBlueprint.to_wire()`` as of the snapshot.
    blueprint: Dict[str, Any]
    #: ``ShardHost.snapshot_state()`` payload (operators, seq, counters).
    state: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SNAPSHOT_VERSION,
            "shard_id": self.shard_id,
            "frame_index": self.frame_index,
            "blueprint": self.blueprint,
            "state": self.state,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ShardSnapshot":
        version = data.get("version")
        if version != SNAPSHOT_VERSION:
            raise DurabilityError(
                f"unsupported snapshot version {version!r} "
                f"(expected {SNAPSHOT_VERSION})"
            )
        return ShardSnapshot(
            shard_id=int(data["shard_id"]),
            frame_index=int(data["frame_index"]),
            blueprint=dict(data["blueprint"]),
            state=dict(data["state"]),
        )

    # -- persistence -------------------------------------------------------

    def save(self, path: str) -> None:
        """Write atomically: a crash mid-write keeps the old snapshot.

        Raises :class:`~repro.errors.WireError` (and writes nothing)
        when the state holds a value the codec cannot express.
        """
        data = BinaryEncoder().encode_frame(self.to_dict())
        replacement = f"{path}.tmp"
        with open(replacement, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(replacement, path)

    @staticmethod
    def load(path: str) -> Optional["ShardSnapshot"]:
        """The snapshot at *path*, or ``None`` when there is none yet."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        if data[:1] == b"{":
            # As a length prefix, "{" would announce a ~2 GB frame; it
            # can only be the start of a version-1 JSON document.
            raise DurabilityError(
                f"snapshot {path!r} is a version-1 JSON snapshot written "
                f"by the retired JSON codec; it is refused, not migrated "
                f"(start from a fresh durable directory)"
            )
        if int.from_bytes(data[:4], "big") != len(data) - 4:
            raise DurabilityError(
                f"snapshot {path!r} is corrupt: its length prefix does not "
                f"match the file size"
            )
        try:
            frame = BinaryDecoder().decode_payload(memoryview(data)[4:])
        except WireError as error:
            raise DurabilityError(
                f"snapshot {path!r} is corrupt: {error}"
            ) from None
        return ShardSnapshot.from_dict(frame)
