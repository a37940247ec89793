"""State machine: the router under traffic, triage and restarts.

Hypothesis drives one :class:`~repro.serve.core.ShardRouter` — an audit
store and a write-ahead log in a temporary directory, the paper
registry — with numbered entries from a fixed hospital day,
duplicate re-sends, requeues and dismissals of quarantined cases, and
restarts on the same files, after a drain or after a crash.  A
test-local checker wrapper fails chosen cases on their first replay
only, so the quarantine has work.

The reference is a fresh interpreted
:class:`~repro.core.monitor.OnlineMonitor` replay of each case's
accepted entries (its checkers have no automaton attached).  After
every step each case must read as it does there (or as the injected
failure left it), the quarantine must be what the triage made it, the
results must list the cases in the order they were first accepted, and
the store's control log must list exactly the requeues and dismissals
issued, in order.
After every restart the store must pass its hash-chain checks and hold
exactly the accepted entries, in the order they were accepted.
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.audit.store import AuditStore
from repro.control import ControlPlane
from repro.core.monitor import OnlineMonitor
from repro.scenarios import hospital_day, process_registry, role_hierarchy
from repro.serve import ServeConfig, ShardRouter
from repro.testing import InjectedFaultError
from tests.oracle import interpreted_twin

DAY = hospital_day(
    n_cases=6,
    violation_rate=0.5,
    seed=1234,
    violation_mix={
        "mimicry": 1.0, "wrong-role": 1.0, "skip": 1.0, "reorder": 1.0,
    },
)
CASES = sorted(DAY.ground_truth)
PER_CASE = {case: list(DAY.trail.for_case(case)) for case in CASES}
#: Cases whose first replay fails (and only the first).
FAILING = frozenset(CASES[:2])
REGISTRY = process_registry()
HIERARCHY = role_hierarchy()


def _reference() -> dict[str, list[dict]]:
    """case -> its record after 1, 2, ... entries on a fresh engine."""
    reference: dict[str, list[dict]] = {}
    for case, entries in PER_CASE.items():
        monitor = OnlineMonitor(
            REGISTRY, hierarchy=HIERARCHY, checker_wrapper=interpreted_twin
        )
        reference[case] = []
        for entry in entries:
            monitor.observe(entry)
            reference[case].append(monitor.case_record(case))
    return reference


REFERENCE = _reference()


class _FailOnce:
    """A ``checker_wrapper`` failing each :data:`FAILING` case's first
    replay; *spent* records the cases that already failed."""

    def __init__(self, spent: set):
        self._spent = spent

    def __call__(self, checker, purpose):
        return _FailOnceChecker(checker, self._spent)


class _FailOnceChecker:
    def __init__(self, checker, spent: set):
        self._checker = checker
        self._spent = spent

    def __getattr__(self, name):
        return getattr(self._checker, name)

    def session(self):
        return _FailOnceSession(self._checker.session(), self._spent)


class _FailOnceSession:
    def __init__(self, session, spent: set):
        self._session = session
        self._spent = spent

    def __getattr__(self, name):
        return getattr(self._session, name)

    def feed(self, entry) -> bool:
        if entry.case in FAILING and entry.case not in self._spent:
            self._spent.add(entry.case)
            raise InjectedFaultError(f"injected first-replay failure of {entry.case}")
        return self._session.feed(entry)


class RouterMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="router-machine-"))
        self.store_path = str(self.directory / "audit.db")
        self.spent: set[str] = set()
        #: case -> accepted entries, and every accepted entry, in
        #: acceptance order.
        self.accepted: dict[str, list] = {}
        self.order: list = []
        self.accepted_since_restart = 0
        self.quarantined: set[str] = set()
        self.dismissed: set[str] = set()
        #: ``(action, case, actor, reason)`` of every triage issued.
        self.control_log: list[tuple] = []
        #: Cases whose live record is the injected failure.
        self.failed: set[str] = set()
        self.router = None

    @initialize()
    def boot(self):
        self._start()

    def _start(self) -> None:
        self.router = ShardRouter(
            REGISTRY,
            hierarchy=HIERARCHY,
            config=ServeConfig(
                store_path=self.store_path,
                wal_dir=str(self.directory / "wal"),
                flush_max_batch=8,
            ),
            checker_wrapper=_FailOnce(self.spent),
        )
        self.router.start()
        self.control = ControlPlane(self.router)

    def teardown(self):
        if self.router is not None:
            self.router.drain()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- traffic ---------------------------------------------------------
    @precondition(
        lambda self: any(
            len(self.accepted.get(case, ())) < len(PER_CASE[case])
            for case in CASES
        )
    )
    @rule(data=st.data())
    def submit_next_entry(self, data):
        case = data.draw(
            st.sampled_from(
                [
                    c for c in CASES
                    if len(self.accepted.get(c, ())) < len(PER_CASE[c])
                ]
            )
        )
        position = len(self.accepted.get(case, ()))
        entry = PER_CASE[case][position]
        fails = case in FAILING and case not in self.spent
        admission = self.router.submit(entry, seq=position + 1)
        assert admission.accepted, admission.reason
        assert admission.case_seq == position + 1
        self.accepted.setdefault(case, []).append(entry)
        self.order.append(entry)
        self.accepted_since_restart += 1
        if fails:
            self.quarantined.add(case)
            self.failed.add(case)

    @precondition(lambda self: self.accepted)
    @rule(data=st.data())
    def resend_an_accepted_entry(self, data):
        case = data.draw(st.sampled_from(sorted(self.accepted)))
        seq = data.draw(
            st.integers(min_value=1, max_value=len(self.accepted[case]))
        )
        received = self.router.entries_received
        admission = self.router.submit(PER_CASE[case][seq - 1], seq=seq)
        assert admission.duplicate and not admission.accepted
        assert self.router.entries_received == received

    # -- triage ------------------------------------------------------------
    @precondition(lambda self: self.quarantined)
    @rule(data=st.data())
    def requeue_a_quarantined_case(self, data):
        case = data.draw(st.sampled_from(sorted(self.quarantined)))
        status, payload, _ = self.control.handle(
            "POST", f"/api/v1/quarantine/{case}/requeue", {}, None
        )
        assert status == 200, payload
        assert payload["replayed_entries"] == len(self.accepted[case])
        self.control_log.append(("requeue", case, "operator", ""))
        self.quarantined.discard(case)
        self.failed.discard(case)

    @precondition(lambda self: self.quarantined)
    @rule(data=st.data())
    def dismiss_a_quarantined_case(self, data):
        case = data.draw(st.sampled_from(sorted(self.quarantined)))
        status, payload, _ = self.control.handle(
            "POST", f"/api/v1/quarantine/{case}/dismiss", {}, {"actor": "t"}
        )
        assert status == 200 and payload["recorded"], payload
        self.control_log.append(("dismiss", case, "t", ""))
        self.quarantined.discard(case)
        self.dismissed.add(case)

    # -- restarts ----------------------------------------------------------
    # (Only once something was accepted since the last one: a restart of
    # an idle router finds nothing new to resume.)
    @precondition(lambda self: self.accepted_since_restart)
    @rule()
    def drain_and_restart(self):
        assert self.router.drain().store_intact is True
        self._restart()

    @precondition(lambda self: self.accepted_since_restart)
    @rule()
    def crash_and_restart(self):
        """Abandon the router the way ``kill -9`` leaves its files: the
        store holds the batches its writer committed, and the WAL holds
        every acknowledged entry."""
        router = self.router
        router._accepting = False
        router._wal.commit()
        router._wal.close()
        router._writer.queue.put(None)  # stops after the queued batches
        router._writer.join()
        self._restart()

    def _restart(self) -> None:
        self.accepted_since_restart = 0
        self.router = None
        self._start()
        # The resume replays each case from the store + WAL; no case
        # fails twice, so nothing is quarantined any more.
        self.quarantined.clear()
        self.failed.clear()
        with AuditStore(self.store_path) as store:
            store.verify_integrity()  # raises on a broken chain
            stored = list(store.iter_entries())
        # Every accepted entry once, the whole store in acceptance order.
        assert stored == self.order

    # -- invariants ------------------------------------------------------
    @invariant()
    def every_case_reads_as_a_fresh_replay(self):
        if self.router is None:
            return
        results = self.router.results()
        # First-seen order, through every restart.
        assert list(results) == list(self.accepted)
        for case, entries in self.accepted.items():
            record = results[case]
            if case in self.failed:
                assert record["state"] == "failed", case
                assert record["failure_kind"] == "error", case
            else:
                assert record == REFERENCE[case][len(entries) - 1], case

    @invariant()
    def quarantine_follows_the_triage(self):
        if self.router is None:
            return
        quarantined = set(self.router.quarantined_cases())
        assert quarantined == self.quarantined
        assert not quarantined & self.dismissed
        for case in self.accepted:
            assert self.router.case_sequence(case) == len(self.accepted[case])

    @invariant()
    def control_log_lists_the_triage(self):
        with AuditStore(self.store_path) as store:
            records = store.control_records()
        assert [
            (r["action"], r["case"], r["actor"], r["reason"]) for r in records
        ] == self.control_log


RouterMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestRouterMachine = RouterMachine.TestCase
