"""Crash recovery: store + WAL delta → byte-identical in-flight state.

These tests crash the router the cheap way — abandon it without a
drain, exactly what ``kill -9`` leaves on disk (a store missing its
unflushed tail, a WAL holding every accepted record) — and assert that
a fresh router after :func:`repro.serve.recovery.recover` produces
per-case canonical digests identical to an uninterrupted run.  The
subprocess version (real SIGKILL over a real socket) lives in
``test_chaos.py``.
"""

import pytest

from repro.audit.store import AuditStore
from repro.core.auditor import PurposeControlAuditor
from repro.errors import ReproError
from repro.scenarios import (
    paper_audit_trail,
    process_registry,
    role_hierarchy,
)
from repro.serve import ServeConfig, ShardRouter, recover
from repro.serve.recovery import collect_case_histories
from repro.serve.wal import WalCorruptionError, read_wal
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
        report = recover(second)
        assert report.store_entries == 0
        assert report.replayed == len(trail)
        assert report.cases > 0
        assert second.wait_idle(timeout=30)
        assert _digests(second) == _batch_digests()
        drained = second.drain()
        assert drained.store_intact is True
        # Post-recovery flush caught the store up with every entry.
        assert drained.entries_written == len(trail)

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
        # sealed segments).  Recovery must dedupe by case_seq.
        second = _router(tmp_path)
        report = recover(second)
        assert report.store_entries == half
        assert report.replayed == len(trail)
        assert second.wait_idle(timeout=30)
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

    def test_repeated_partial_recovery_is_idempotent(self, tmp_path):
        trail = list(paper_audit_trail())
        first = _router(tmp_path)
        for entry in trail:
            assert first.submit(entry).accepted
        assert first.wait_idle(timeout=30)
        _crash(first)

        # Crash *during* recovery, after the replay flushed but before
        # the WAL was reset — then recover again on the leftovers.
        second = _router(tmp_path)
        recover(second)
        assert second.wait_idle(timeout=30)
        _crash(second)

        third = _router(tmp_path)
        report = recover(third)
        assert third.wait_idle(timeout=30)
        assert _digests(third) == _batch_digests()
        assert report.duplicates == 0 or report.replayed == len(trail)
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
        recover(second)
        assert second.wait_idle(timeout=30)
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
        report = recover(second)
        assert report.torn_segments
        # The torn record was never durably acknowledged; everything
        # before it must replay cleanly.
        assert report.replayed == len(trail) - 1
        assert second.wait_idle(timeout=30)
        second.drain()


class TestRecoverGuards:
    def test_recover_requires_a_wal(self, tmp_path):
        router = ShardRouter(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(shards=2, store_path=str(tmp_path / "a.db")),
        )
        router.start()
        with pytest.raises(ReproError, match="wal_dir"):
            recover(router)
        router.drain()

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

        second = _router(tmp_path)
        with pytest.raises(ReproError, match="hash-chain"):
            recover(second)
        second.drain()

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
        from repro.serve.wal import WalWriter, segment_paths

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
        recover(second)
        assert second.wait_idle(timeout=30)
        # A client resuming its numbered stream re-sends the tail; every
        # re-send must come back as an idempotent duplicate.
        resend = second.submit(case_entries[-1], seq=len(case_entries))
        assert not resend.accepted
        assert resend.duplicate
        # ... and the *next* number is accepted as fresh work would be.
        assert second.case_sequence(case) == len(case_entries)
        second.drain()


class TestRecoverThroughTableTier:
    """``--recover`` with the dense-table replay tier on: the rebuilt
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
        report = recover(second)
        assert report.replayed == len(trail)
        assert second.wait_idle(timeout=30)
        assert _digests(second) == _batch_digests()
        # The recovered replay ran on the table tier, not a fallback.
        assert registry.counter("automaton_table_hits_total").total > 0
        second.drain()

    def test_recovery_survives_a_corrupt_table_artifact(self, tmp_path):
        """A table that rots while the service is down must cost only
        its warm start: recovery regrows a fresh table, digests
        unchanged."""
        from pathlib import Path

        from repro.testing import corrupt_artifact

        trail = list(paper_audit_trail())
        first = self._table_router(tmp_path)
        for entry in trail:
            assert first.submit(entry).accepted
        assert first.wait_idle(timeout=30)
        _crash(first)

        # Corrupt *after* the restarted router's startup precompile
        # rewrites the artifacts: the rot must be caught at warm-load
        # time, on the recovery replay path itself.
        second = self._table_router(tmp_path)
        tables = sorted(Path(tmp_path / "automata").glob("*.table.bin"))
        assert tables, "precompile should have persisted table artifacts"
        for path in tables:
            corrupt_artifact(path, "bitflip")
        report = recover(second)
        assert report.replayed == len(trail)
        assert second.wait_idle(timeout=30)
        assert _digests(second) == _batch_digests()
        second.drain()
