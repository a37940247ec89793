"""Crash recovery: store + WAL delta → byte-identical in-flight state.

These tests crash the router the cheap way — abandon it without a
drain, exactly what ``kill -9`` leaves on disk (a store missing its
unflushed tail, a WAL holding every accepted record) — and assert that
a fresh router on the same files, which resumes them in ``start()``,
produces per-case canonical digests identical to an uninterrupted run.
The subprocess versions (real SIGKILL or SIGTERM over a real socket)
live in ``test_chaos.py`` and ``test_serve_restart.py``.
"""

import dataclasses
import sqlite3
import threading

import pytest

from repro.audit.store import AuditStore
from repro.core.auditor import PurposeControlAuditor
from repro.errors import ReproError
from repro.scenarios import (
    paper_audit_trail,
    process_registry,
    role_hierarchy,
)
from repro.serve import ServeConfig, ShardRouter
from repro.serve.recovery import collect_case_histories
from repro.serve.wal import (
    WalCorruptionError,
    WalWriter,
    read_wal,
    segment_paths,
)
from repro.testing import canonical_digest, corrupt_wal_tail


def _batch_digests():
    registry, hierarchy = process_registry(), role_hierarchy()
    report = PurposeControlAuditor(registry, hierarchy=hierarchy).audit(
        paper_audit_trail()
    )
    return {
        case: canonical_digest(result.replay)
        for case, result in report.cases.items()
        if result.replay is not None
    }


def _config(tmp_path, **overrides) -> ServeConfig:
    defaults = dict(
        shards=3,
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
    """Abandon a router the way kill -9 does: no drain, no WAL reset.

    The WAL buffers are committed first — the chaos suite covers the
    fsync-lost tail; here every *acknowledged* (synced) entry is on
    disk, which is the durability level the protocol promises.
    """
    for wal in router._wals.values():
        wal.commit()
        wal.close()
    router._accepting = False  # the old threads idle harmlessly


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


class TestRecoverEndToEnd:
    def test_crash_before_any_flush_recovers_from_wal_alone(self, tmp_path):
        trail = list(paper_audit_trail())
        first = _router(tmp_path)
        for entry in trail:
            assert first.submit(entry).accepted
        assert first.wait_idle(timeout=30)
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
        assert first.wait_idle(timeout=30)
        _crash(first)

        # The store holds the first half; the WAL still holds *all*
        # accepted records for some shards (retirement only drops whole
        # sealed segments).  The resume must dedupe by case_seq.
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
        assert first.wait_idle(timeout=30)
        _crash(first)

        # Crash *during* a resume, after the replay flushed but before
        # the WAL was reset — then resume again on the leftovers.
        with monkeypatch.context() as patch:
            patch.setattr(WalWriter, "reset", lambda wal: None)
            second = _router(tmp_path)
        _crash(second)

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

    @pytest.mark.parametrize("shards", [1, 5])
    def test_recovery_across_a_shard_count_change(self, tmp_path, shards):
        trail = list(paper_audit_trail())
        first = _router(tmp_path)  # 3 shards
        for entry in trail:
            assert first.submit(entry).accepted
        assert first.wait_idle(timeout=30)
        _crash(first)

        # The replacement runs a different topology: WAL segments are
        # keyed by *old* shard names, cases re-home through the new
        # ring, and the verdicts must not care.
        second = _router(tmp_path, shards=shards)
        assert _digests(second) == _batch_digests()
        # Stale-topology segments were cleaned up once the store owned
        # everything.
        leftover = {r.shard for r in read_wal(tmp_path / "wal").records}
        assert leftover <= {f"shard-{i}" for i in range(shards)}
        second.drain()

    def test_torn_wal_tail_recovers_the_acknowledged_prefix(self, tmp_path):
        trail = list(paper_audit_trail())
        first = _router(tmp_path, shards=1)
        for entry in trail:
            assert first.submit(entry).accepted
        assert first.wait_idle(timeout=30)
        _crash(first)
        from repro.serve.wal import segment_paths

        last = segment_paths(tmp_path / "wal", "shard-0")[-1]
        corrupt_wal_tail(last, mode="truncate")

        second = _router(tmp_path, shards=1)
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
        first = _router(tmp_path, shards=1)
        for entry in trail[:half]:
            assert first.submit(entry).accepted
        first.wal_commit()  # what `sync` does: the first half is acked
        _crash(first)  # ... and never flushed to the store

        # A restart that did not resume would accept the rest, and its
        # first store commit would retire the segment holding the
        # acknowledged first half.
        second = _router(tmp_path, shards=1)
        for entry in trail[half:]:
            assert second.submit(entry).accepted
        assert second.wait_idle(timeout=30)
        assert _digests(second) == _batch_digests()
        assert second.drain().store_intact is True
        with AuditStore(str(tmp_path / "audit.db")) as store:
            stored = list(store.iter_entries())
        # Every row, each case's in acceptance order (the resume stages
        # the WAL delta case by case).
        assert len(stored) == len(trail)
        for case in {entry.case for entry in trail}:
            assert [e for e in stored if e.case == case] == [
                e for e in trail if e.case == case
            ]

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
        first = _router(tmp_path, shards=1)
        for entry in trail:
            assert first.submit(entry).accepted
        assert first.wait_idle(timeout=30)
        live = first.results()["HT-1"]
        assert live["state"] == "completed"
        first.drain()

        second = _router(tmp_path, shards=1)
        assert second.results()["HT-1"]["digest"] == live["digest"]
        second.drain()


class TestRecoverGuards:
    def test_recover_refuses_a_tampered_store(self, tmp_path):
        trail = list(paper_audit_trail())
        first = _router(tmp_path)
        for entry in trail:
            assert first.submit(entry).accepted
        first.flush()
        assert first._writer_sync(timeout=30)
        assert first.wait_idle(timeout=30)
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
        first = _router(tmp_path, shards=1)
        for entry in trail:
            assert first.submit(entry).accepted
        assert first.wait_idle(timeout=30)
        _crash(first)

        # Drop a middle record by rewriting the (single) segment without
        # it — a hole in fsynced data, which no crash produces.
        wal_dir = tmp_path / "wal"
        result = read_wal(wal_dir, "shard-0")
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
        writer = WalWriter(wal_dir, "shard-0")
        for record in result.records:
            if record is victim:
                continue
            writer.append(record.entry, record.case_seq)
        writer.close()

        with pytest.raises(WalCorruptionError, match="missing"):
            collect_case_histories(None, str(wal_dir))

    # The store writer dies on the failed commit, as on a full disk.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_a_store_failure_during_the_resume_keeps_the_wal(
        self, tmp_path, monkeypatch
    ):
        trail = list(paper_audit_trail())
        first = _router(tmp_path, shards=1)
        for entry in trail:
            assert first.submit(entry).accepted
        assert first.wait_idle(timeout=30)
        _crash(first)  # every entry acknowledged, none in the store
        segments = segment_paths(tmp_path / "wal")
        assert segments

        def disk_full(self, entries):
            raise sqlite3.OperationalError("database or disk is full")

        with monkeypatch.context() as patch:
            patch.setattr(AuditStore, "append_many", disk_full)
            with pytest.raises(ReproError, match="log is kept"):
                _router(tmp_path, shards=1)
        # The WAL was the only durable copy of the delta: it is still
        # on disk, and the next start resumes every entry from it.
        assert all(path.exists() for path in segments)
        third = _router(tmp_path, shards=1)
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
        assert first.wait_idle(timeout=30)
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
            config=_config(
                tmp_path,
                compiled=True,
                automaton_dir=str(tmp_path / "automata"),
            ),
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
        assert first.wait_idle(timeout=30)
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
        assert first.wait_idle(timeout=30)
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
        router = _router(tmp_path, shards=1)
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
