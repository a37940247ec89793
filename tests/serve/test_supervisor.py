"""Shard supervision: crash detection, bounded restart, reassignment.

The supervisor's contract: a shard that dies (or hangs) loses no case
except the poison suspect it was processing — every other case replays
from the store + WAL into the replacement shard and finishes with a
verdict byte-identical to an undisturbed run.  Past the restart budget
the shard is excised from the consistent-hash ring instead of
crash-looping.  Every router with a write-ahead log is supervised; no
other setting turns it on.

The kill/stall seams live in the checker session layer, which the
interpreted and the compiled daemon both route through (the engine
wraps whichever checker it warmed), so every scenario runs on both:
each ``Compiled`` subclass repeats its class with ``compiled=True``.
"""

import threading
import time

from repro.core.auditor import PurposeControlAuditor
from repro.obs import (
    SERVE_SHARD_REASSIGNED,
    SERVE_SHARD_RESTARTED,
    MemoryEventLog,
    MetricsRegistry,
    Telemetry,
)
from repro.scenarios import (
    paper_audit_trail,
    process_registry,
    role_hierarchy,
)
from repro.serve import ServeConfig, ShardRouter
from repro.testing import ShardKillInjector, canonical_digest
from tests.serve.test_recovery import _swapped_trail


def _telemetry():
    log = MemoryEventLog()
    telemetry = Telemetry.create(registry=MetricsRegistry(), events=log.events)
    return telemetry, log


def _batch_digests(exclude=()):
    report = PurposeControlAuditor(
        process_registry(), hierarchy=role_hierarchy()
    ).audit(paper_audit_trail())
    return {
        case: canonical_digest(result.replay)
        for case, result in report.cases.items()
        if result.replay is not None and case not in exclude
    }


def _digests(router, exclude=()) -> dict:
    return {
        case: info["digest"]
        for case, info in router.results().items()
        if info["digest"] is not None and case not in exclude
    }


def _victim_case(min_entries: int = 2) -> str:
    counts: dict[str, int] = {}
    for entry in paper_audit_trail():
        counts[entry.case] = counts.get(entry.case, 0) + 1
    for case, count in counts.items():
        if count >= min_entries:
            return case
    raise AssertionError("scenario has no case with enough entries")


def _router(tmp_path, checker_wrapper, telemetry=None, **overrides):
    config = dict(
        shards=2,
        store_path=str(tmp_path / "audit.db"),
        wal_dir=str(tmp_path / "wal"),
        heartbeat_interval_s=0.05,
    )
    config.update(overrides)
    router = ShardRouter(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(**config),
        telemetry=telemetry,
        checker_wrapper=checker_wrapper,
    )
    router.start()
    return router


def _await_supervision(router, timeout: float = 15.0) -> None:
    """Wait until the supervisor has restarted or excised some shard."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = router.statistics()["supervisor"]
        if stats["restarts"] or stats["reassigned_shards"]:
            return
        time.sleep(0.02)
    raise AssertionError("supervisor never intervened")


class _StallOnce:
    """Checker wrapper that stalls the first entry of one case, once."""

    def __init__(self, case: str, stall_s: float):
        self.case = case
        self.stall_s = stall_s
        self._fired = threading.Event()

    def __call__(self, checker, purpose: str):
        outer = self

        class _Session:
            def __init__(self, inner):
                self._inner = inner

            def feed(self, entry):
                if (
                    entry.case == outer.case
                    and not outer._fired.is_set()
                ):
                    outer._fired.set()
                    time.sleep(outer.stall_s)
                return self._inner.feed(entry)

            def result(self):
                return self._inner.result()

            def __getattr__(self, name):
                return getattr(self._inner, name)

        class _Checker:
            def session(self):
                return _Session(checker.session())

            def check(self, trail):
                return checker.check(trail)

            def __getattr__(self, name):
                return getattr(checker, name)

        return _Checker()


class TestCrashRestart:
    compiled = None

    def test_killed_shard_restarts_and_other_cases_are_unharmed(
        self, tmp_path
    ):
        victim = _victim_case()
        telemetry, log = _telemetry()
        router = _router(
            tmp_path,
            ShardKillInjector(victim, after_entries=1),
            telemetry=telemetry,
            compiled=self.compiled,
        )
        for entry in paper_audit_trail():
            assert router.submit(entry).accepted
        _await_supervision(router)
        assert router.wait_idle(timeout=30)

        stats = router.statistics()
        assert sum(stats["supervisor"]["restarts"].values()) == 1
        assert stats["supervisor"]["reassigned_shards"] == []
        # The in-flight case is the poison suspect: quarantined, never
        # replayed into the replacement.
        assert stats["quarantined_cases"] == 1
        results = router.results()
        assert results[victim]["digest"] is None
        # The replacement never saw the suspect, yet files it under the
        # purpose its case id claims.
        assert router.case_record(victim)["purpose"] == (
            process_registry().purpose_of_case(victim)
        )
        # Every *other* case is byte-identical to an undisturbed audit.
        assert _digests(router, exclude={victim}) == _batch_digests(
            exclude={victim}
        )
        restarted = log.named(SERVE_SHARD_RESTARTED)
        assert len(restarted) == 1
        assert restarted[0]["victim"] == victim
        assert restarted[0]["reason"] == "crashed"
        drained = router.drain()
        assert drained.store_intact is True

    def test_a_wal_alone_restarts_a_killed_shard(self, tmp_path):
        router = ShardRouter(
            process_registry(),
            hierarchy=role_hierarchy(),
            config=ServeConfig(
                shards=2,
                store_path=str(tmp_path / "audit.db"),
                wal_dir=str(tmp_path / "wal"),
                compiled=self.compiled,
            ),
            checker_wrapper=ShardKillInjector("HT-1"),
        )
        router.start()
        try:
            for entry in paper_audit_trail():
                assert router.submit(entry).accepted
            # Without a supervisor the dead shard never reaches the
            # barrier, and every later sync would wait forever.
            assert router.wait_idle(timeout=15)
            restarts = router.statistics()["supervisor"]["restarts"]
            assert sum(restarts.values()) == 1
        finally:
            router.drain()

    def test_a_restart_replays_in_acceptance_order(self, tmp_path):
        head = [e for e in _swapped_trail() if e.case == "HT-1"]
        killer = next(e for e in paper_audit_trail() if e.case == "HT-2")
        router = _router(
            tmp_path,
            ShardKillInjector("HT-2"),
            shards=1,
            compiled=self.compiled,
        )
        try:
            for entry in head:
                assert router.submit(entry).accepted
            assert router.wait_idle(timeout=30)
            live = router.case_record("HT-1")
            assert live["state"] == "completed"
            assert router.submit(killer).accepted
            _await_supervision(router)
            assert router.wait_idle(timeout=30)
            assert router.case_record("HT-1")["digest"] == live["digest"]
        finally:
            router.drain()

    def test_exhausted_budget_reassigns_through_the_ring(self, tmp_path):
        victim = _victim_case()
        telemetry, log = _telemetry()
        router = _router(
            tmp_path,
            ShardKillInjector(victim, after_entries=1),
            telemetry=telemetry,
            max_shard_restarts=0,
            compiled=self.compiled,
        )
        for entry in paper_audit_trail():
            assert router.submit(entry).accepted
        _await_supervision(router)
        assert router.wait_idle(timeout=30)

        stats = router.statistics()
        assert len(stats["supervisor"]["reassigned_shards"]) == 1
        assert stats["shards"] == 1  # the survivor owns the whole ring
        assert _digests(router, exclude={victim}) == _batch_digests(
            exclude={victim}
        )
        assert log.named(SERVE_SHARD_REASSIGNED)
        # New work for re-homed cases flows to the survivor.
        assert router.submit(next(iter(paper_audit_trail()))).accepted
        router.drain()


class TestHangDetection:
    compiled = None

    def test_hung_shard_is_detected_and_replaced(self, tmp_path):
        victim = _victim_case()
        telemetry, log = _telemetry()
        router = _router(
            tmp_path,
            _StallOnce(victim, stall_s=3.0),
            telemetry=telemetry,
            hang_timeout_s=0.3,
            compiled=self.compiled,
        )
        for entry in paper_audit_trail():
            assert router.submit(entry).accepted
        _await_supervision(router)
        assert router.wait_idle(timeout=30)

        stats = router.statistics()
        assert sum(stats["supervisor"]["restarts"].values()) == 1
        restarted = log.named(SERVE_SHARD_RESTARTED)
        assert restarted and restarted[0]["reason"] == "hung"
        assert restarted[0]["victim"] == victim
        assert _digests(router, exclude={victim}) == _batch_digests(
            exclude={victim}
        )
        # The stalled thread eventually wakes, sees it was abandoned,
        # and exits without corrupting the replacement's state.
        router.drain()


class TestCrashRestartCompiled(TestCrashRestart):
    compiled = True


class TestHangDetectionCompiled(TestHangDetection):
    compiled = True
