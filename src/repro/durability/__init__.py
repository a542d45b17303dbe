"""Durable enactment: write-ahead journals, snapshots, crash recovery.

The paper's Enactment System is long-running infrastructure; this
package makes the sharded execution layer (:mod:`repro.parallel`)
survive worker crashes without losing or duplicating notifications:

* :mod:`~repro.durability.log` — the per-shard write-ahead
  :class:`FrameLog`: binary wire frames on disk, fsync-batched,
  torn-tail tolerant, compactable without renumbering;
* :mod:`~repro.durability.state` — capture/restore of live operator
  state (partition maps, counters, held events with provenance) as
  native values;
* :mod:`~repro.durability.snapshot` — :class:`ShardSnapshot`, the
  atomic pairing of a journal position with the blueprint and host
  state that cover it, stored as one binary frame;
* :mod:`~repro.durability.supervisor` — :class:`SupervisedShard`, the
  journal-then-send / respawn-and-replay loop the facade wraps around
  each process shard when :attr:`ShardConfig.durable_dir` is set.

The recovery contract is *exact continuation*: the provenance-signature
multiset of a crashed-and-recovered run equals the uninterrupted run's
(QE12 asserts it), because replay regenerates the per-shard stream
deterministically and the facade's ``(time, shard, seq)`` merge keys
suppress notifications it already merged.

Journal, snapshot, and worker channel share one encoding, the binary
codec of :mod:`repro.parallel.codec`.  Durable directories written by
the retired JSON codec (a journal without the binary magic, a version-1
JSON snapshot) are refused with a :class:`~repro.errors.DurabilityError`
and left unchanged; they are not migrated.
"""

from .log import CONTROL_COMPACTED, FrameLog, log_base, read_file_frames, scan
from .snapshot import SNAPSHOT_VERSION, ShardSnapshot
from .state import (
    capture_operator,
    capture_operators,
    restore_operator,
    restore_operators,
)
from .supervisor import (
    JOURNAL_FILENAME,
    SNAPSHOT_FILENAME,
    SupervisedShard,
    shard_directory,
)

__all__ = [
    "CONTROL_COMPACTED",
    "FrameLog",
    "JOURNAL_FILENAME",
    "SNAPSHOT_FILENAME",
    "SNAPSHOT_VERSION",
    "ShardSnapshot",
    "SupervisedShard",
    "capture_operator",
    "capture_operators",
    "log_base",
    "read_file_frames",
    "restore_operator",
    "restore_operators",
    "scan",
    "shard_directory",
]
