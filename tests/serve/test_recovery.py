"""Crash recovery: store + WAL tail → byte-identical in-flight state.

These tests crash the router the cheap way — abandon it without a
drain, exactly what ``kill -9`` leaves on disk (a store missing its
unflushed tail, a WAL holding every accepted record) — or drain it,
and assert that a fresh router on the same files, which resumes them in
``start()``, produces per-case canonical digests identical to an
uninterrupted run.  A durable store alone is resumed too.  The
subprocess versions (real SIGKILL or SIGTERM over a real socket) live
in ``test_chaos.py`` and ``test_serve_restart.py``.
"""

import dataclasses
import sqlite3
import threading
from collections import Counter
from datetime import timedelta, timezone

import pytest

import repro.serve.core
from repro.audit.model import AuditTrail
from repro.audit.store import AuditStore
from repro.audit.xes import export_xes, import_xes
from repro.errors import ReproError
from repro.scenarios import (
    paper_audit_trail,
    process_registry,
    role_hierarchy,
)
from repro.serve import AuditStreamClient, ServeConfig, ShardRouter
from repro.serve.protocol import entry_to_message
from repro.serve.recovery import wal_delta
from repro.serve.wal import (
    LOG_NAME,
    WalCorruptionError,
    WalWriter,
    read_wal,
    segment_paths,
)
from repro.testing import corrupt_wal_tail
from tests.oracle import interpreted_digests


def _batch_digests():
    return interpreted_digests(
        process_registry(), paper_audit_trail(), role_hierarchy()
    )


def _config(tmp_path, **overrides) -> ServeConfig:
    defaults = dict(
        store_path=str(tmp_path / "audit.db"),
        wal_dir=str(tmp_path / "wal"),
        flush_max_batch=10_000,  # flushes only when the test says so
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _router(tmp_path, **overrides) -> ShardRouter:
    router = ShardRouter(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=_config(tmp_path, **overrides),
    )
    router.start()
    return router


def _crash(router: ShardRouter) -> None:
    """Abandon a router the way kill -9 does: no drain, the WAL kept.

    The WAL buffers are committed first — the chaos suite covers the
    fsync-lost tail; here every *acknowledged* (synced) entry is on
    disk, which is the durability level the protocol promises.
    """
    router._wal.commit()
    router._wal.close()
    router._accepting = False  # the old store writer idles harmlessly


def _swapped_trail() -> list:
    """The paper trail with HT-1's second and third timestamps swapped,
    arrival order unchanged: live, the write comes before the cancel
    and HT-1 completes; in timestamp order it would be infringing."""
    trail = list(paper_audit_trail())
    second, third = [i for i, e in enumerate(trail) if e.case == "HT-1"][1:3]
    trail[second], trail[third] = (
        dataclasses.replace(trail[second], timestamp=trail[third].timestamp),
        dataclasses.replace(trail[third], timestamp=trail[second].timestamp),
    )
    return trail


def _digests(router: ShardRouter) -> dict:
    return {
        case: info["digest"]
        for case, info in router.results().items()
        if info["digest"] is not None
    }


def _numbered(trail) -> list[tuple]:
    """``(entry, seq)`` pairs, each entry numbered within its case."""
    counts: Counter = Counter()
    numbered = []
    for entry in trail:
        counts[entry.case] += 1
        numbered.append((entry, counts[entry.case]))
    return numbered


def _sharded_directory(wal_dir, trail, logged_from: int) -> list:
    """The segments a daemon that split its cases over three logs
    (``shard-0`` … ``shard-2``) leaves behind when it dies after a
    ``sync``: every entry from *logged_from* on, each in its case's log,
    numbered by its position within its case.  Each log is written
    alone and its segment renamed to the old name."""
    cases = list(dict.fromkeys(entry.case for entry in trail))
    scratch = wal_dir.parent / "shard-logs"
    writers = [WalWriter(scratch / str(i)) for i in range(3)]
    for index, (entry, seq) in enumerate(_numbered(trail)):
        if index >= logged_from:
            writers[cases.index(entry.case) % len(writers)].append(entry, seq)
    wal_dir.mkdir(parents=True, exist_ok=True)
    for i, writer in enumerate(writers):
        writer.close()
        for segment in segment_paths(scratch / str(i)):
            segment.rename(
                wal_dir / segment.name.replace(LOG_NAME, f"shard-{i}")
            )
    return segment_paths(wal_dir)


class TestRecoverEndToEnd:
    def test_crash_before_any_flush_recovers_from_wal_alone(self, tmp_path):
        trail = list(paper_audit_trail())
        first = _router(tmp_path)
        for entry in trail:
            assert first.submit(entry).accepted
        _crash(first)  # nothing was flushed: the store is empty

        second = _router(tmp_path)
        report = second.recovery_report
        assert report.store_entries == 0
        assert report.replayed == len(trail)
        assert report.cases > 0
        assert _digests(second) == _batch_digests()
        # The resume's flush caught the store up with every entry.
        assert second.entries_written == len(trail)
        drained = second.drain()
        assert drained.store_intact is True

    def test_crash_between_flush_and_retirement_never_double_counts(
        self, tmp_path
    ):
        trail = list(paper_audit_trail())
        half = len(trail) // 2
        first = _router(tmp_path)
        for entry in trail[:half]:
            assert first.submit(entry).accepted
        first.flush()
        assert first._writer_sync(timeout=30)
        for entry in trail[half:]:
            assert first.submit(entry).accepted
        _crash(first)

        # The store holds the first half; the WAL still holds *all*
        # accepted records (retirement only drops whole sealed
        # segments).  The resume must dedupe by case_seq.
        second = _router(tmp_path)
        report = second.recovery_report
        assert report.store_entries == half
        assert report.replayed == len(trail)
        assert _digests(second) == _batch_digests()
        stats = second.statistics()
        assert stats["entries_observed"] == len(trail)
        drained = second.drain()
        assert drained.store_intact is True
        # Only the WAL delta is (re)written — the stored prefix is not
        # appended twice.
        assert drained.entries_written == len(trail) - half
        store = AuditStore(str(tmp_path / "audit.db"))
        assert len(store.query()) == len(trail)
        store.close()

    def test_repeated_partial_recovery_is_idempotent(
        self, tmp_path, monkeypatch
    ):
        trail = list(paper_audit_trail())
        first = _router(tmp_path)
        for entry in trail:
            assert first.submit(entry).accepted
        _crash(first)

        # Crash *during* a resume, after the store committed the log's
        # tail but before the old log was removed — then resume again on
        # the leftovers.
        class Crash(Exception):
            pass

        def crash(directory):
            raise Crash(directory)

        second = ShardRouter(
            process_registry(), hierarchy=role_hierarchy(), config=_config(tmp_path)
        )
        with monkeypatch.context() as patch:
            patch.setattr(repro.serve.core, "remove_segments", crash)
            with pytest.raises(Crash):
                second.start()
        second.drain()  # stops its store writer; the old log stays
        assert read_wal(tmp_path / "wal").records

        third = _router(tmp_path)
        report = third.recovery_report
        assert _digests(third) == _batch_digests()
        # The store owns every entry now; the WAL only repeats it.
        assert report.store_entries == report.replayed == len(trail)
        assert report.duplicates == len(trail)
        drained = third.drain()
        assert drained.store_intact is True
        store = AuditStore(str(tmp_path / "audit.db"))
        assert len(store.query()) == len(trail)
        store.close()

    def test_resume_of_a_directory_a_sharded_daemon_left(self, tmp_path):
        trail = list(paper_audit_trail())
        half = len(trail) // 2
        with AuditStore(str(tmp_path / "audit.db")) as store:
            store.append_many(trail[:half])
        # The logs overlap the stored prefix: their oldest records were
        # committed but not yet retired when the daemon died.
        old = _sharded_directory(tmp_path / "wal", trail, half // 2)

        router = _router(tmp_path)
        report = router.recovery_report
        assert report.store_entries == half
        assert report.replayed == len(trail)
        assert report.duplicates == half - half // 2
        assert _digests(router) == _batch_digests()
        for case, count in Counter(entry.case for entry in trail).items():
            assert router.case_sequence(case) == count
        # The store owns the delta now: the old logs are gone, only the
        # one log's fresh segment is left.
        assert not any(path.exists() for path in old)
        assert [path.name for path in segment_paths(tmp_path / "wal")] == [
            f"{LOG_NAME}-00000001.wal"
        ]
        assert router.drain().store_intact is True
        with AuditStore(str(tmp_path / "audit.db")) as store:
            stored = list(store.iter_entries())
        assert len(stored) == len(trail)
        assert stored[:half] == trail[:half]
        for case in {entry.case for entry in trail}:
            assert [e for e in stored if e.case == case] == [
                e for e in trail if e.case == case
            ], f"case {case} is out of order in the store"

    @pytest.mark.parametrize("left_by", ["crash", "sharded"])
    def test_a_resume_leaves_one_fresh_log(self, tmp_path, left_by):
        """Whatever log a start resumed — a crashed daemon's own, or the
        ``shard-N`` logs of an older one — it leaves one fresh segment
        whose first record is seq 1."""
        trail = list(paper_audit_trail())
        half = len(trail) // 2
        wal_dir = tmp_path / "wal"
        if left_by == "crash":
            first = _router(tmp_path)
            for entry in trail[:half]:
                assert first.submit(entry).accepted
            _crash(first)
        else:
            _sharded_directory(wal_dir, trail[:half], 0)

        router = _router(tmp_path)
        assert router.recovery_report.replayed == half
        assert [path.name for path in segment_paths(wal_dir)] == [
            f"{LOG_NAME}-00000001.wal"
        ]
        for entry in trail[half:]:
            assert router.submit(entry).accepted
        router.wal_commit()
        records = read_wal(wal_dir).records
        assert [record.wal_seq for record in records] == list(
            range(1, len(trail) - half + 1)
        )
        assert [record.entry for record in records] == trail[half:]
        assert _digests(router) == _batch_digests()
        assert router.drain().store_intact is True
        assert segment_paths(wal_dir) == []

    def test_torn_wal_tail_recovers_the_acknowledged_prefix(self, tmp_path):
        trail = list(paper_audit_trail())
        first = _router(tmp_path)
        for entry in trail:
            assert first.submit(entry).accepted
        _crash(first)
        last = segment_paths(tmp_path / "wal")[-1]
        corrupt_wal_tail(last, mode="truncate")

        second = _router(tmp_path)
        report = second.recovery_report
        assert report.torn_segments
        # The torn record was never durably acknowledged; everything
        # before it must replay cleanly.
        assert report.replayed == len(trail) - 1
        second.drain()

    def test_restart_on_a_dirty_wal_keeps_every_acknowledged_entry(
        self, tmp_path
    ):
        trail = list(paper_audit_trail())
        half = len(trail) // 2
        first = _router(tmp_path)
        for entry in trail[:half]:
            assert first.submit(entry).accepted
        first.wal_commit()  # what `sync` does: the first half is acked
        _crash(first)  # ... and never flushed to the store

        # A restart that did not resume would accept the rest, and its
        # first store commit would retire the segment holding the
        # acknowledged first half.
        second = _router(tmp_path)
        for entry in trail[half:]:
            assert second.submit(entry).accepted
        assert _digests(second) == _batch_digests()
        assert second.drain().store_intact is True
        with AuditStore(str(tmp_path / "audit.db")) as store:
            stored = list(store.iter_entries())
        # Every row, in acceptance order: the resume stages the WAL delta
        # in the log's own order, so the chain records how the cases
        # interleaved.
        for row, (got, sent) in enumerate(zip(stored, trail)):
            assert got == sent, f"store row {row} is out of acceptance order"
        assert len(stored) == len(trail)

    def test_a_fresh_record_is_not_a_resume(self, tmp_path):
        from repro.obs import SERVE_RECOVERED, MemoryEventLog, Telemetry

        log = MemoryEventLog()
        router = ShardRouter(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=_config(tmp_path),
            telemetry=Telemetry.create(events=log.events),
        )
        router.start()
        assert router.recovery_report is None
        assert router.statistics()["recovery"] == {"recovered": False}
        assert log.named(SERVE_RECOVERED) == []
        router.drain()

    def test_resume_replays_in_acceptance_order(self, tmp_path):
        trail = _swapped_trail()
        first = _router(tmp_path)
        for entry in trail:
            assert first.submit(entry).accepted
        live = first.results()["HT-1"]
        assert live["state"] == "completed"
        first.drain()

        second = _router(tmp_path)
        assert second.results()["HT-1"]["digest"] == live["digest"]
        second.drain()


def _zoned_trail() -> tuple[list, list[str]]:
    """The paper trail stamped ``+02:00``: its entries, built in-process
    (each keeps naive UTC), and the zoned ISO text of each stamp."""
    plus_two = timezone(timedelta(hours=2))
    zoned = [
        entry.timestamp.replace(tzinfo=plus_two)
        for entry in paper_audit_trail()
    ]
    trail = [
        dataclasses.replace(entry, timestamp=stamp)
        for entry, stamp in zip(paper_audit_trail(), zoned)
    ]
    return trail, [stamp.isoformat() for stamp in zoned]


def _batch_audit(trail) -> dict:
    return interpreted_digests(process_registry(), trail, role_hierarchy())


class TestZonedTimestamps:
    def test_digests_survive_a_restart_and_match_a_batch_audit(
        self, serve_factory, tmp_path
    ):
        """The wire, the store and XES import read ``+02:00`` alike, as
        naive UTC, so a resumed case digests as it did live."""
        trail, stamps = _zoned_trail()
        config = _config(tmp_path, flush_max_batch=256)
        handle = serve_factory(
            process_registry(), hierarchy=role_hierarchy(), config=config
        )
        with AuditStreamClient(handle.host, handle.port) as client:
            client.recv_until("hello")
            for entry, stamp in zip(trail, stamps):
                client.send({**entry_to_message(entry), "ts": stamp})
            live = client.results()
        assert handle.drain().store_intact is True

        again = ShardRouter(
            process_registry(), hierarchy=role_hierarchy(), config=config
        )
        again.start()
        resumed = again.results()
        again.drain()
        digests = {case: record["digest"] for case, record in live.items()}
        assert len(digests) == 8
        assert {
            case: record["digest"] for case, record in resumed.items()
        } == digests
        assert _batch_audit(import_xes(export_xes(AuditTrail(trail)))) == digests

    def test_in_process_submits_digest_as_they_resume(self, tmp_path):
        """An entry built in-process with an aware timestamp keeps naive
        UTC from the start, so the live replay prints what the store and
        the resume read back."""
        trail, _ = _zoned_trail()
        router = _router(tmp_path, flush_max_batch=256)
        for entry in trail:
            assert router.submit(entry).accepted
        live = _digests(router)
        assert router.drain().store_intact is True

        again = _router(tmp_path)
        resumed = _digests(again)
        again.drain()
        assert len(live) == 8
        assert resumed == live
        assert _batch_audit(trail) == live


class TestStoreOnlyRestart:
    """A durable store is what every start resumes, with or without a
    write-ahead log."""

    def test_a_drained_store_resumes_every_case(self, tmp_path):
        numbered = _numbered(paper_audit_trail())
        half = len(numbered) // 2
        first = _router(tmp_path, wal_dir=None)
        for entry, seq in numbered[:half]:
            assert first.submit(entry, seq=seq).accepted
        assert first.drain().store_intact is True

        second = _router(tmp_path, wal_dir=None)
        report = second.recovery_report
        assert (report.store_entries, report.replayed) == (half, half)
        assert report.wal_records == 0 and report.store_intact is True
        # The client re-ships its whole numbered stream: the stored half
        # comes back as duplicates, the rest is accepted in order.
        admissions = [second.submit(entry, seq=seq) for entry, seq in numbered]
        assert sum(admission.duplicate for admission in admissions) == half
        assert sum(admission.accepted for admission in admissions) == (
            len(numbered) - half
        )
        assert not any(admission.busy for admission in admissions)
        assert _digests(second) == _batch_digests()
        assert second.drain().store_intact is True
        with AuditStore(str(tmp_path / "audit.db")) as store:
            assert list(store.iter_entries()) == [e for e, _ in numbered]

    def test_a_fresh_store_is_not_a_resume(self, tmp_path):
        router = _router(tmp_path, wal_dir=None)
        assert router.recovery_report is None
        router.drain()
        again = _router(tmp_path, wal_dir=None)
        assert again.recovery_report is None
        again.drain()


class TestRecoverGuards:
    @pytest.mark.parametrize("store_path", [None, ":memory:"])
    def test_a_wal_needs_a_durable_store(self, tmp_path, store_path):
        with pytest.raises(ValueError, match="durable store_path"):
            ShardRouter(
                process_registry(),
                config=_config(tmp_path, store_path=store_path),
            )
        assert not (tmp_path / "wal").exists()

    def test_recover_refuses_a_tampered_store(self, tmp_path):
        trail = list(paper_audit_trail())
        first = _router(tmp_path)
        for entry in trail:
            assert first.submit(entry).accepted
        first.flush()
        assert first._writer_sync(timeout=30)
        _crash(first)

        store = AuditStore(str(tmp_path / "audit.db"))
        store.tamper(1, status="failure")
        store.close()

        with pytest.raises(ReproError, match="hash-chain"):
            _router(tmp_path)
        # Refused before anything was opened: the WAL is untouched.
        assert read_wal(tmp_path / "wal").records

    def test_gap_in_sealed_wal_data_raises(self, tmp_path):
        trail = list(paper_audit_trail())
        first = _router(tmp_path)
        for entry in trail:
            assert first.submit(entry).accepted
        _crash(first)

        # Drop a middle record by rewriting the (single) segment without
        # it — a hole in fsynced data, which no crash produces.
        wal_dir = tmp_path / "wal"
        result = read_wal(wal_dir)
        by_case: dict = {}
        victim = None
        for record in result.records:
            by_case.setdefault(record.case, []).append(record)
        for case, records in by_case.items():
            if len(records) >= 3:
                victim = records[1]  # a strict middle entry
                break
        assert victim is not None
        for path in segment_paths(wal_dir):
            path.unlink()
        writer = WalWriter(wal_dir)
        for record in result.records:
            if record is victim:
                continue
            writer.append(record.entry, record.case_seq)
        writer.close()

        with pytest.raises(WalCorruptionError, match="missing"):
            wal_delta(str(wal_dir), {})

    # The store writer dies on the failed commit, as on a full disk.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_a_store_failure_during_the_resume_keeps_the_wal(
        self, tmp_path, monkeypatch
    ):
        trail = list(paper_audit_trail())
        first = _router(tmp_path)
        for entry in trail:
            assert first.submit(entry).accepted
        _crash(first)  # every entry acknowledged, none in the store
        segments = segment_paths(tmp_path / "wal")
        assert segments

        def disk_full(self, entries):
            raise sqlite3.OperationalError("database or disk is full")

        with monkeypatch.context() as patch:
            patch.setattr(AuditStore, "append_many", disk_full)
            with pytest.raises(ReproError, match="log is kept"):
                _router(tmp_path)
        # The WAL was the only durable copy of the delta: it is still
        # on disk, and the next start resumes every entry from it.
        assert all(path.exists() for path in segments)
        third = _router(tmp_path)
        assert third.recovery_report.replayed == len(trail)
        assert _digests(third) == _batch_digests()
        assert third.drain().store_intact is True
        with AuditStore(str(tmp_path / "audit.db")) as store:
            assert len(list(store.iter_entries())) == len(trail)

    def test_sequence_high_water_mark_survives_recovery(self, tmp_path):
        trail = list(paper_audit_trail())
        case = trail[0].case
        case_entries = [e for e in trail if e.case == case]
        first = _router(tmp_path)
        for seq, entry in enumerate(case_entries, start=1):
            assert first.submit(entry, seq=seq).accepted
        _crash(first)

        second = _router(tmp_path)
        # A client resuming its numbered stream re-sends the tail; every
        # re-send must come back as an idempotent duplicate.
        resend = second.submit(case_entries[-1], seq=len(case_entries))
        assert not resend.accepted
        assert resend.duplicate
        # ... and the *next* number is accepted as fresh work would be.
        assert second.case_sequence(case) == len(case_entries)
        second.drain()


class TestRecoverThroughTableTier:
    """A resume with the dense-table replay tier on: the rebuilt
    in-flight state must be byte-identical to batch ground truth, and
    the replay must actually run on the table (not silently fall back)."""

    def _table_router(self, tmp_path, telemetry=None):
        from repro.obs import NULL_TELEMETRY
        from repro.serve import ShardRouter

        router = ShardRouter(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=_config(tmp_path, automaton_dir=str(tmp_path / "automata")),
            telemetry=telemetry if telemetry is not None else NULL_TELEMETRY,
        )
        router.start()
        return router

    def test_recovery_replays_through_the_dense_table(self, tmp_path):
        from repro.obs import MetricsRegistry, Telemetry

        trail = list(paper_audit_trail())
        first = self._table_router(tmp_path)
        for entry in trail:
            assert first.submit(entry).accepted
        _crash(first)

        registry = MetricsRegistry()
        second = self._table_router(
            tmp_path, telemetry=Telemetry.create(registry=registry)
        )
        assert second.recovery_report.replayed == len(trail)
        assert _digests(second) == _batch_digests()
        # The recovered replay ran on the table tier, not a fallback.
        assert registry.counter("automaton_table_hits_total").total > 0
        second.drain()

    def test_recovery_survives_a_corrupt_table_artifact(
        self, tmp_path, monkeypatch
    ):
        """A table that rots while the service is down must cost only
        its warm start: recovery regrows a fresh table, digests
        unchanged."""
        from pathlib import Path

        import repro.compile
        from repro.testing import corrupt_artifact

        trail = list(paper_audit_trail())
        first = self._table_router(tmp_path)
        for entry in trail:
            assert first.submit(entry).accepted
        _crash(first)

        # Corrupt *after* the restarted router's startup precompile
        # rewrites the artifacts: the rot must be caught at warm-load
        # time, on the resume's replay path itself.
        precompile = repro.compile.precompile

        def precompile_then_rot(*args, **kwargs):
            compiled = precompile(*args, **kwargs)
            tables = sorted(Path(tmp_path / "automata").glob("*.table.bin"))
            assert tables, "precompile should have persisted table artifacts"
            for path in tables:
                corrupt_artifact(path, "bitflip")
            return compiled

        monkeypatch.setattr(repro.compile, "precompile", precompile_then_rot)
        second = self._table_router(tmp_path)
        assert second.recovery_report.replayed == len(trail)
        assert _digests(second) == _batch_digests()
        second.drain()


class TestStoreOrder:
    def test_concurrent_flushes_commit_in_acceptance_order(self, tmp_path):
        trail = list(paper_audit_trail())
        router = _router(tmp_path)
        writer_queue = router._writer.queue
        put = writer_queue.put
        held, release = threading.Event(), threading.Event()

        def held_put(item, *args, **kwargs):
            # The first flusher stops between taking the buffer and
            # handing the batch to the store writer.
            if item is not None and item[0] == "batch" and not held.is_set():
                held.set()
                release.wait(30)
            return put(item, *args, **kwargs)

        writer_queue.put = held_put
        for entry in trail[:10]:
            assert router.submit(entry).accepted
        older = threading.Thread(target=router.flush)
        older.start()
        assert held.wait(10)
        admitted = []

        def newer_batch():
            for entry in trail[10:]:
                admitted.append(router.submit(entry).accepted)
            router.flush()

        newer = threading.Thread(target=newer_batch)
        newer.start()
        newer.join(timeout=1)  # a second flusher, while the first waits
        release.set()
        older.join(timeout=10)
        newer.join(timeout=10)
        assert not older.is_alive() and not newer.is_alive()
        assert admitted == [True] * (len(trail) - 10)
        assert router._writer_sync(timeout=30)
        with AuditStore(str(tmp_path / "audit.db")) as store:
            assert list(store.iter_entries()) == trail
        router.drain()
