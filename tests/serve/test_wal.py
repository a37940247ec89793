"""Unit tests for the write-ahead ingest log.

The WAL's contract (docs/robustness.md): every accepted entry is
CRC-framed before it is acknowledged, segments rotate and retire whole,
and after any crash the readable prefix is exactly the accepted stream
minus (at most) an un-fsynced suffix — never a hole, never a phantom.
A log lives once: a writer starts in a directory that holds no segment.
"""

import struct
import zlib
from dataclasses import replace

import pytest

from repro.errors import MalformedEntryError
from repro.scenarios import paper_audit_trail
from repro.serve.protocol import decode_message, entry_from_message, entry_to_message
from repro.serve.wal import (
    LOG_NAME,
    MAGIC,
    WalCorruptionError,
    WalError,
    WalWriter,
    _ENCODE,
    read_segment,
    read_wal,
    remove_segments,
    segment_paths,
    wal_records_by_case,
)
from repro.testing import corrupt_wal_tail, disk_full_hook


@pytest.fixture
def entries():
    return list(paper_audit_trail())


def _fill(writer: WalWriter, entries, start_case_seq: int = 1) -> list[int]:
    seqs = []
    counts: dict[str, int] = {}
    for entry in entries:
        counts[entry.case] = counts.get(entry.case, 0) + 1
        seqs.append(writer.append(entry, counts[entry.case]))
    return seqs


class TestRoundTrip:
    def test_append_commit_read_roundtrip(self, tmp_path, entries):
        writer = WalWriter(tmp_path)
        seqs = _fill(writer, entries)
        assert seqs == list(range(1, len(entries) + 1))
        writer.commit()
        writer.close()

        result = read_wal(tmp_path)
        assert not result.torn_tail
        assert len(result.records) == len(entries)
        for record, entry, seq in zip(result.records, entries, seqs):
            assert record.wal_seq == seq
            assert record.entry == entry
            assert record.case == entry.case

    def test_per_case_grouping_preserves_order(self, tmp_path, entries):
        writer = WalWriter(tmp_path)
        _fill(writer, entries)
        writer.close()
        grouped = wal_records_by_case(read_wal(tmp_path).records)
        for case, records in grouped.items():
            assert [r.case_seq for r in records] == list(
                range(1, len(records) + 1)
            )

    def test_stats_track_unflushed_lag(self, tmp_path, entries):
        writer = WalWriter(tmp_path, fsync_batch=10_000)
        _fill(writer, entries[:5])
        stats = writer.stats()
        assert stats["unflushed_records"] == 5
        assert stats["unflushed_bytes"] > 0
        assert stats["fsyncs"] == 0
        writer.commit()
        stats = writer.stats()
        assert stats["unflushed_records"] == 0
        assert stats["unflushed_bytes"] == 0
        assert stats["fsyncs"] == 1
        writer.close()

    def test_fsync_batch_flushes_to_os_without_fsync(self, tmp_path, entries):
        writer = WalWriter(tmp_path, fsync_batch=3)
        _fill(writer, entries[:7])
        # The batch threshold pushes to the OS (process-crash bound) but
        # never fsyncs in the append path — durability is the sync
        # barrier's job.
        assert writer.flushes == 2  # at records 3 and 6
        assert writer.fsyncs == 0
        assert writer.unflushed_records == 7
        # The flushed records are readable even though never fsynced:
        # they sit in the OS page cache, which survives a process crash.
        assert len(read_wal(tmp_path).records) == 6
        writer.close()


class TestRotationAndRetirement:
    def test_segments_rotate_at_size_cap(self, tmp_path, entries):
        writer = WalWriter(tmp_path, segment_max_bytes=512)
        _fill(writer, entries)
        assert writer.segment_count > 1
        assert len(segment_paths(tmp_path)) == writer.segment_count
        # Rotation must not lose or reorder anything (commit first: the
        # open segment's tail is buffered until an fsync).
        writer.commit()
        result = read_wal(tmp_path)
        assert [r.wal_seq for r in result.records] == list(
            range(1, len(entries) + 1)
        )
        writer.close()

    def test_retire_removes_only_wholly_covered_sealed_segments(
        self, tmp_path, entries
    ):
        writer = WalWriter(tmp_path, segment_max_bytes=512)
        _fill(writer, entries)
        before = writer.segment_count
        assert writer.retire(0) == 0  # nothing covered
        # Retiring up to the last seq removes every *sealed* segment but
        # never the open one.
        removed = writer.retire(writer.last_seq)
        assert removed == before - 1
        assert writer.segment_count == 1
        survivors = read_wal(tmp_path)
        # Whole-file deletion only: records in the open segment survive.
        assert all(r.wal_seq > 0 for r in survivors.records)
        writer.close()


class TestTornTails:
    @pytest.mark.parametrize("mode", ["truncate", "garbage", "flip"])
    def test_torn_final_segment_is_tolerated(self, tmp_path, entries, mode):
        writer = WalWriter(tmp_path)
        _fill(writer, entries)
        writer.close()
        path = segment_paths(tmp_path)[-1]
        corrupt_wal_tail(path, mode=mode)

        result = read_wal(tmp_path)
        assert result.torn_tail
        # Everything before the tear is salvaged, in order, no gaps.
        assert [r.wal_seq for r in result.records] == list(
            range(1, len(result.records) + 1)
        )
        assert len(result.records) >= len(entries) - 1

    def test_torn_tail_raises_when_read_strictly(self, tmp_path, entries):
        writer = WalWriter(tmp_path)
        _fill(writer, entries)
        writer.close()
        path = segment_paths(tmp_path)[-1]
        corrupt_wal_tail(path, mode="truncate")
        with pytest.raises(WalCorruptionError):
            read_segment(path, tolerant=False)

    def test_corruption_in_a_sealed_segment_raises(self, tmp_path, entries):
        writer = WalWriter(tmp_path, segment_max_bytes=512)
        _fill(writer, entries)
        writer.close()
        paths = segment_paths(tmp_path)
        assert len(paths) > 2
        corrupt_wal_tail(paths[0], mode="flip")  # sealed, fsynced region
        with pytest.raises(WalCorruptionError):
            read_wal(tmp_path)

    def test_non_segment_file_raises_on_bad_magic(self, tmp_path):
        bogus = tmp_path / "ingest-00000001.wal"
        bogus.write_bytes(b"not a wal segment at all")
        with pytest.raises(WalCorruptionError):
            read_segment(bogus)


class TestOneLifePerLog:
    def test_a_writer_refuses_a_directory_that_holds_segments(
        self, tmp_path, entries
    ):
        first = WalWriter(tmp_path)
        _fill(first, entries[:10])
        first.close()
        before = [path.read_bytes() for path in segment_paths(tmp_path)]
        with pytest.raises(WalError, match="still holds 1 WAL segment"):
            WalWriter(tmp_path)
        # Refused without touching the old log.
        assert [path.read_bytes() for path in segment_paths(tmp_path)] == before

    def test_a_writer_starts_at_seq_1_once_the_segments_are_removed(
        self, tmp_path, entries
    ):
        first = WalWriter(tmp_path, segment_max_bytes=512)
        _fill(first, entries)
        first.close()
        assert remove_segments(tmp_path) > 1
        assert segment_paths(tmp_path) == []
        second = WalWriter(tmp_path)
        assert second.append(entries[0], 1) == 1
        second.close()
        assert [path.name for path in segment_paths(tmp_path)] == [
            f"{LOG_NAME}-00000001.wal"
        ]


class TestOldDirectories:
    def test_each_old_log_is_read_as_its_own_log(self, tmp_path, entries):
        """Two logs in one directory, as a daemon that split its cases
        over several logs left them: each log's last segment may end
        torn, wherever it sorts in the directory."""
        for name, part in (("shard-0", entries[:4]), ("shard-1", entries[4:7])):
            writer = WalWriter(tmp_path / name)
            _fill(writer, part)
            writer.close()
            [segment] = segment_paths(tmp_path / name)
            segment.rename(tmp_path / segment.name.replace(LOG_NAME, name))
        paths = segment_paths(tmp_path)
        assert [path.name for path in paths] == [
            "shard-0-00000001.wal",
            "shard-1-00000001.wal",
        ]
        assert [r.entry for r in read_wal(tmp_path).records] == entries[:7]
        corrupt_wal_tail(paths[0], mode="truncate")
        result = read_wal(tmp_path)
        assert result.torn_tail
        assert [r.entry for r in result.records] == [
            *entries[:3], *entries[4:7]
        ]


class TestFaultHook:
    def test_disk_full_rejects_the_append(self, tmp_path, entries):
        writer = WalWriter(
            tmp_path, fault_hook=disk_full_hook(after_ops=2)
        )
        _fill(writer, entries[:2])
        with pytest.raises(OSError):
            writer.append(entries[2], 1)
        # The failed append must leave no trace: nothing was framed.
        assert writer.last_seq == 2
        writer.commit()
        writer.close()
        assert len(read_wal(tmp_path).records) == 2


class TestWireLines:
    """An ``entry`` line is framed as received and reads back as the
    entry the live decode produced; the re-encoded form still reads."""

    @pytest.mark.parametrize(
        "line",
        [
            b'{"op":"entry","user":"Mary","role":"GP","action":"read",'
            b'"obj":"[Jane]EPR/Clinical","task":"T01","case":"HT-1",'
            b'"ts":"201003011005","seq":1}',
            b'{"op": "entry", "user": "Mary", "role": "GP", "action": "read",'
            b' "obj": null, "task": "T01", "case": "HT-1",'
            b' "ts": "2010-03-01T10:05:00", "status": "failure",'
            b' "traceparent": "00-0af7651916cd43dd8448eb211c80319c-'
            b'b7ad6b7169203331-01"}',
            b'{"op":"entry","user":"Mary","role":"GP","action":"read",'
            b'"task":"T01","case":"HT-1","ts":"201003011005",'
            b'"extra":{"unknown":["key",1,2.5,null,true]}}',
            b' \t{"op":"entry","user":"Mary","role":"GP","action":"read",'
            b'"task":"T01","case":"HT-1","ts":"201003011005"}  \r\n',
            '{"op":"entry","user":"Émile Zoë 张伟 \U0001F600","role":"GP",'
            '"action":"read","obj":"[Zoë]EPR","task":"T01","case":"HT-ü",'
            '"ts":"201003011005"}\n'.encode("utf-8"),
            b'{"op":"entry","user":"\\u00c9mile \\"q\\" \\\\ \\ud83d\\ude00",'
            b'"role":"GP\\u0000\\n","action":"read","task":"T\\u00e91",'
            b'"case":"HT-1","ts":"201003011005"}',
        ],
        ids=["seq", "traceparent", "unknown-key", "whitespace", "non-ascii",
             "escapes"],
    )
    def test_a_framed_line_reads_back_as_the_live_decode(self, tmp_path, line):
        live = entry_from_message(decode_message(line))
        writer = WalWriter(tmp_path)
        writer.append(live, 1, line.strip())
        writer.close()
        [path] = segment_paths(tmp_path)
        records, torn = read_segment(path, tolerant=False)
        assert not torn
        assert [(r.wal_seq, r.case, r.case_seq, r.entry) for r in records] == [
            (1, live.case, 1, live)
        ]

    def test_the_re_encoded_form_still_reads(self, tmp_path, entries):
        """A record as a daemon that re-encoded every entry framed it."""
        entry = entries[0]
        payload = b'{"q":7,"c":%s,"n":3,"e":%s}' % (
            _ENCODE(entry.case).encode(),
            _ENCODE(entry_to_message(entry)).encode(),
        )
        path = tmp_path / "ingest-00000001.wal"
        path.write_bytes(
            MAGIC + struct.pack("<II", len(payload), zlib.crc32(payload))
            + payload
        )
        records, torn = read_segment(path, tolerant=False)
        assert not torn
        assert [(r.wal_seq, r.case_seq, r.entry) for r in records] == [
            (7, 3, entry)
        ]

    def test_entries_without_a_line_are_encoded_once(self, tmp_path, entries):
        writer = WalWriter(tmp_path)
        _fill(writer, entries)
        writer.close()
        data = segment_paths(tmp_path)[0].read_bytes()
        for entry in entries:
            assert _ENCODE(entry_to_message(entry)).encode() in data

    def test_text_the_store_cannot_hold_is_refused(self, entries):
        """No record can frame it: such an entry cannot be built."""
        with pytest.raises(MalformedEntryError, match="UTF-8"):
            replace(entries[0], user="lone\ud800")
