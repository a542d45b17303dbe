"""Capture and restore of live operator state.

An operator's run-time state is its partition map (:class:`EventOperator`
replicates per process instance) plus its consumed/produced counters.
The partition values are whatever ``new_state()`` built — ``{"count": n}``
for Count, ``[bool]`` for Edge, slot→event maps for And, pointer/seen
dicts for Seq — so a snapshot must carry arbitrary compositions of
scalars, lists, tuples, frozensets, non-string-keyed mappings, and held
:class:`~repro.events.event.Event` objects with their provenance
(correlation operators keep the constituent events of a pending
composition).

The binary codec of :mod:`repro.parallel.codec` expresses all of these
natively, so a capture is just the native values: they cross the worker
channel and land in the snapshot file as they are.  Anything else — an
open file, a callable, an application object — makes the encode raise
:class:`~repro.errors.WireError`; the worker then reports "no snapshot"
and recovery falls back to full-journal replay, which is always correct
(the journal covers the shard's whole life until its first compaction,
and compaction only runs after a successful snapshot).
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..awareness.operators.base import EventOperator
from ..errors import SnapshotUnsupportedError


def capture_operator(operator: EventOperator) -> Dict[str, Any]:
    """One operator's recoverable state (live values — encode promptly)."""
    return {
        "consumed": operator.consumed,
        "produced": operator.produced,
        "partitions": operator._partitions,
    }


def restore_operator(operator: EventOperator, record: Dict[str, Any]) -> None:
    """Load a :func:`capture_operator` record into a fresh operator."""
    operator.consumed = int(record["consumed"])
    operator.produced = int(record["produced"])
    operator._partitions = dict(record["partitions"])


def capture_operators(
    operators: List[EventOperator],
) -> List[Dict[str, Any]]:
    """Capture an enumerated operator list, preserving order."""
    return [capture_operator(operator) for operator in operators]


def restore_operators(
    operators: List[EventOperator], records: List[Dict[str, Any]]
) -> None:
    if len(operators) != len(records):
        raise SnapshotUnsupportedError(
            f"snapshot holds {len(records)} operator states but the "
            f"rebuilt pipeline enumerates {len(operators)} operators — "
            f"the blueprint diverged from the snapshot"
        )
    for operator, record in zip(operators, records):
        restore_operator(operator, record)
