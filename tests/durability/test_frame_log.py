"""The write-ahead frame log: framing, fsync batching, repair, compaction."""

import os

import pytest

from repro.durability.log import (
    CONTROL_COMPACTED,
    FrameLog,
    log_base,
    read_file_frames,
    scan,
)
from repro.errors import DurabilityError, WireError


def frames_for(count, start=0):
    return [{"kind": "events", "n": index} for index in range(start, count)]


class TestAppendAndScan:
    def test_round_trip_preserves_frames_and_indices(self, tmp_path):
        path = str(tmp_path / "journal.log")
        with FrameLog(path) as log:
            indices = [log.append(frame) for frame in frames_for(5)]
        assert indices == [0, 1, 2, 3, 4]
        assert read_file_frames(path) == frames_for(5)
        file_frames, valid, torn = scan(path)
        assert file_frames == 5
        assert valid == os.path.getsize(path)
        assert not torn

    def test_reopen_continues_the_numbering(self, tmp_path):
        path = str(tmp_path / "journal.log")
        with FrameLog(path) as log:
            log.append({"kind": "events", "n": 0})
        with FrameLog(path) as log:
            assert log.frame_count == 1
            assert log.append({"kind": "events", "n": 1}) == 1

    def test_failed_append_leaves_the_log_readable(self, tmp_path):
        path = str(tmp_path / "journal.log")
        with FrameLog(path, fsync_every=0) as log:
            log.append({"kind": "events", "n": 0})
            with pytest.raises(WireError):
                log.append({"kind": "events", "tag": "reused", "x": object()})
            # The next frame reuses the string the failed one defined.
            assert log.append({"kind": "events", "tag": "reused"}) == 1
        assert read_file_frames(path) == [
            {"kind": "events", "n": 0},
            {"kind": "events", "tag": "reused"},
        ]
        file_frames, valid, torn = scan(path)
        assert (file_frames, valid, torn) == (2, os.path.getsize(path), False)

    def test_tail_reads_from_an_absolute_index(self, tmp_path):
        path = str(tmp_path / "journal.log")
        with FrameLog(path) as log:
            for frame in frames_for(6):
                log.append(frame)
            assert log.tail(4) == frames_for(6)[4:]
            assert log.tail(0) == frames_for(6)


class TestFsyncBatching:
    def test_fsync_runs_once_per_batch(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))
        )
        with FrameLog(str(tmp_path / "journal.log"), fsync_every=4) as log:
            for frame in frames_for(7):
                log.append(frame)
            assert len(calls) == 1  # one batch of 4; 3 appends pending
            log.sync()
            assert len(calls) == 2
            log.sync()  # nothing unsynced: no extra fsync
            assert len(calls) == 2

    def test_fsync_every_zero_never_batches(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))
        )
        log = FrameLog(str(tmp_path / "journal.log"), fsync_every=0)
        for frame in frames_for(10):
            log.append(frame)
        assert calls == []
        log.close()  # close still flushes once
        assert len(calls) == 1

    def test_negative_fsync_every_is_rejected(self, tmp_path):
        with pytest.raises(DurabilityError):
            FrameLog(str(tmp_path / "journal.log"), fsync_every=-1)


class TestTornTailRepair:
    def test_partial_payload_is_truncated_on_reopen(self, tmp_path):
        path = str(tmp_path / "journal.log")
        with FrameLog(path) as log:
            for frame in frames_for(3):
                log.append(frame)
        # A crashed writer left a complete header promising more payload
        # than exists.
        with open(path, "ab") as handle:
            handle.write((1 << 16).to_bytes(4, "big"))
            handle.write(b'{"kind": "ev')
        assert scan(path)[2] is True
        with FrameLog(path) as log:
            assert log.frame_count == 3
            assert log.append({"kind": "events", "n": 3}) == 3
        assert read_file_frames(path) == frames_for(4)

    def test_partial_header_is_truncated_on_reopen(self, tmp_path):
        path = str(tmp_path / "journal.log")
        with FrameLog(path) as log:
            for frame in frames_for(2):
                log.append(frame)
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00")  # 2 of the 4 header bytes
        file_frames, valid, torn = scan(path)
        assert (file_frames, torn) == (2, True)
        with FrameLog(path) as log:
            assert log.frame_count == 2
        assert os.path.getsize(path) == valid


class TestCompaction:
    def test_compaction_preserves_absolute_indices(self, tmp_path):
        path = str(tmp_path / "journal.log")
        log = FrameLog(path)
        for frame in frames_for(8):
            log.append(frame)
        survivors = log.compact(5)
        assert survivors == 3
        assert log.base == 5
        assert log.tail(5) == frames_for(8)[5:]
        assert log.tail(6) == frames_for(8)[6:]
        # New appends continue the absolute numbering.
        assert log.append({"kind": "events", "n": 8}) == 8
        log.close()
        # The control frame makes the file self-describing.
        raw = read_file_frames(path)
        assert raw[0] == {"kind": CONTROL_COMPACTED, "base": 5}
        assert log_base(path) == 5

    def test_reopen_after_compaction_keeps_the_base(self, tmp_path):
        path = str(tmp_path / "journal.log")
        with FrameLog(path) as log:
            for frame in frames_for(6):
                log.append(frame)
            log.compact(4)
        with FrameLog(path) as log:
            assert log.base == 4
            assert log.frame_count == 6
            assert log.tail(4) == frames_for(6)[4:]

    def test_reading_below_the_base_is_refused(self, tmp_path):
        with FrameLog(str(tmp_path / "journal.log")) as log:
            for frame in frames_for(4):
                log.append(frame)
            log.compact(2)
            with pytest.raises(DurabilityError):
                log.tail(1)

    def test_compacting_past_the_end_is_refused(self, tmp_path):
        with FrameLog(str(tmp_path / "journal.log")) as log:
            log.append({"kind": "events", "n": 0})
            with pytest.raises(DurabilityError):
                log.compact(2)

    def test_compacting_below_the_base_is_a_noop(self, tmp_path):
        with FrameLog(str(tmp_path / "journal.log")) as log:
            for frame in frames_for(5):
                log.append(frame)
            log.compact(3)
            assert log.compact(2) == 2  # still 2 payload frames on file
            assert log.base == 3
