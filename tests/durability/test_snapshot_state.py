"""Snapshot files, operator-state capture, and host-level snapshot/restore
determinism — all through the one binary codec."""

import multiprocessing
import os

import pytest

from repro.awareness.operators.generic import And
from repro.durability.snapshot import SNAPSHOT_VERSION, ShardSnapshot
from repro.durability.state import capture_operator, restore_operator
from repro.errors import DurabilityError, SnapshotUnsupportedError, WireError
from repro.events.canonical import canonical_type
from repro.events.event import Event
from repro.observability import instrumented
from repro.observability.provenance import ProvenanceNode
from repro.parallel import ShardConfig, ShardedFederation
from repro.parallel.codec import BinaryDecoder, BinaryEncoder
from repro.parallel.host import ShardHost
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload


def workload():
    return ShardStreamWorkload(
        ShardStreamConfig(forces=3, windows_per_force=2, events_per_force=24)
    )


def booted_host(wl, shard_id=0, shard_count=1):
    host = ShardHost(shard_id, shard_count)
    host.apply_blueprint(wl.blueprint())
    return host


def through_the_codec(value):
    """*value* as it arrives after crossing a channel (or a snapshot)."""
    data = BinaryEncoder().encode_frame({"value": value})
    return BinaryDecoder().decode_payload(data[4:])["value"]


def saved_and_loaded(tmp_path, state):
    path = str(tmp_path / "snapshot.json")
    ShardSnapshot(0, 3, {"participants": []}, state).save(path)
    return ShardSnapshot.load(path).state


def canonical_event(instance, time, provenance=None):
    event = Event.trusted(
        canonical_type("P-TF"),
        {
            "time": time,
            "source": "detector",
            "processSchemaId": "P-TF",
            "processInstanceId": instance,
            "intInfo": time,
            "description": "deadline churn",
        },
    )
    event.provenance = provenance
    return event


class TestStateCodec:
    def test_scalars_and_containers_round_trip(self, tmp_path):
        state = {
            "count": 3,
            "flags": [True, False],
            "pair": (1, "two"),
            "keys": frozenset({1, 2}),
            7: {"nested": None},
        }
        decoded = saved_and_loaded(tmp_path, state)
        assert decoded == state
        assert type(decoded["pair"]) is tuple
        assert type(decoded["keys"]) is frozenset

    def test_dollar_prefixed_string_keys_survive(self, tmp_path):
        state = {"$ev": "not an event", "$m": [1, 2]}
        assert saved_and_loaded(tmp_path, state) == state

    def test_held_events_keep_their_provenance(self, tmp_path):
        # An And operator holding one constituent per instance: int slot
        # keys, held events with provenance, a snapshot file in between.
        chain = ProvenanceNode(
            event_id=3,
            node="Count:P-TF",
            kind="composite",
            event_type="C[P-TF]",
            logical_time=5,
            summary="count reached 2",
            inputs=(
                ProvenanceNode(
                    event_id=1,
                    node="source:E_context",
                    kind="primitive",
                    event_type="T_context",
                    logical_time=5,
                    summary=("context", "TaskForceCtx", "Deadline", 20),
                ),
            ),
        )
        live = And("P-TF")
        live.consume(0, canonical_event("tf-001", 5, chain))
        live.consume(1, canonical_event("tf-002", 6))
        record = capture_operator(live)
        restored = And("P-TF")
        restore_operator(
            restored, saved_and_loaded(tmp_path, {"op": record})["op"]
        )
        assert restored.consumed == live.consumed == 2
        assert set(restored._partitions) == {"tf-001", "tf-002"}
        held = restored._partitions["tf-001"][0]
        assert dict(held.params) == dict(
            live._partitions["tf-001"][0].params
        )
        assert held.provenance.signature() == chain.signature()
        assert list(restored._partitions["tf-002"]) == [1]
        # The restored operator completes the pending composition.
        (out,) = restored.consume(1, canonical_event("tf-001", 9))
        assert out.params["processInstanceId"] == "tf-001"

    def test_unencodable_state_raises(self, tmp_path):
        path = str(tmp_path / "snapshot.json")
        with pytest.raises(WireError):
            ShardSnapshot(0, 0, {}, {"handle": object()}).save(path)
        assert not os.path.exists(path)


class TestShardSnapshotFile:
    def test_save_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "snapshot.json")
        snapshot = ShardSnapshot(
            shard_id=1,
            frame_index=42,
            blueprint={"participants": []},
            state={"seq": 7},
        )
        snapshot.save(path)
        loaded = ShardSnapshot.load(path)
        assert loaded == snapshot

    def test_missing_snapshot_is_none(self, tmp_path):
        assert ShardSnapshot.load(str(tmp_path / "nope.json")) is None

    def test_corrupt_snapshot_is_an_error(self, tmp_path):
        path = tmp_path / "snapshot.json"
        path.write_bytes(b"\x00\x00\x00\x03\x0b\x01")
        with pytest.raises(DurabilityError, match="corrupt"):
            ShardSnapshot.load(str(path))

    def test_version_drift_is_an_error(self):
        data = ShardSnapshot(0, 0, {}, {}).to_dict()
        data["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(DurabilityError):
            ShardSnapshot.from_dict(data)


class TestHostSnapshotRestore:
    def test_snapshot_plus_replay_matches_uninterrupted_run(self):
        wl = workload()
        events = wl.events()
        cut = len(events) // 2

        with instrumented():
            reference = booted_host(wl)
            reference.ingest(events)
            expected = reference.drain_results()
            reference.close()

            first = booted_host(wl)
            first.ingest(events[:cut])
            before = first.drain_results()
            state = first.snapshot_state()
            assert state is not None
            first.close()

            # The crash-recovery shape: a fresh host from the same
            # blueprint, the snapshot restored, the tail replayed.
            recovered = booted_host(wl)
            recovered.restore_state(through_the_codec(state))
            recovered.ingest(events[cut:])
            after = recovered.drain_results()
            recovered.close()

        combined = before + after
        assert [r["seq"] for r in combined] == list(range(len(combined)))
        assert [r["signature"] for r in combined] == [
            r["signature"] for r in expected
        ]

    def test_restored_stats_continue_the_counters(self):
        wl = workload()
        events = wl.events()
        host = booted_host(wl)
        host.ingest(events)
        host.drain_results()
        full = host.stats()
        state = host.snapshot_state()
        host.close()

        recovered = booted_host(wl)
        recovered.restore_state(through_the_codec(state))
        stats = recovered.stats()
        recovered.close()
        for key in (
            "events_ingested",
            "composites_recognized",
            "notifications",
            "bus_published",
        ):
            assert stats[key] == full[key], key

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the process backend requires the fork start method",
    )
    def test_unencodable_operator_state_degrades_to_none(
        self, tmp_path, monkeypatch
    ):
        # A live operator holding state the codec cannot express: the
        # worker answers "no snapshot", the journal is kept whole, and
        # the channel stays usable — the failed encode left its intern
        # tables untouched.
        real = ShardHost.snapshot_state

        def poisoned(host):
            state = real(host)
            state["operators"][0] = {"handle": object()}
            return state

        monkeypatch.setattr(ShardHost, "snapshot_state", poisoned)
        wl = workload()
        config = ShardConfig(
            shards=1,
            backend="process",
            instrument=True,
            join_timeout=10.0,
            durable_dir=str(tmp_path / "durable"),
            snapshot_every=0,
        )
        with ShardedFederation(wl.blueprint(), config) as federation:
            federation.ingest(wl.events())
            federation.drain()
            shard = federation.shards[0]
            assert shard.take_snapshot() is None
            assert shard.journal.base == 0
            assert not os.path.exists(shard.snapshot_path)
            assert federation.stats()["shards_alive"] == 1
            assert len(federation.delivered) == wl.expected_notifications()

    def test_restore_refuses_a_diverged_blueprint(self):
        wl = workload()
        host = booted_host(wl)
        state = host.snapshot_state()
        host.close()
        state["operators"] = state["operators"][:-1]
        other = booted_host(wl)
        with pytest.raises(SnapshotUnsupportedError):
            other.restore_state(state)
        other.close()
