"""State machine: one case engine under interleaved traffic and requeues.

:class:`~repro.core.monitor.OnlineMonitor` makes every per-case decision
for every mode — purpose resolution, replay, containment, findings,
requeue and the case record.  Hypothesis drives one engine with the
entries of a hospital day with violations, interleaved case by case,
mixed with entries under an unknown prefix and entries of a
non-well-founded purpose, and requeues cases — contained ones above
all — along the way.
After every step, each case must read exactly as it does on a fresh
engine fed that case's accepted entries, and the engine must list its
cases in the order they were first seen, requeued ones included.
"""

from dataclasses import replace

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.monitor import OnlineMonitor
from repro.scenarios import hospital_day, process_registry, role_hierarchy
from repro.scenarios.workloads import VIOLATION_KINDS
from tests.core.test_resilience import entry, non_well_founded_process

DAY = hospital_day(
    8,
    violation_rate=0.5,
    seed=23,
    violation_mix={kind: 1.0 for kind in VIOLATION_KINDS},
)
CASES = DAY.trail.cases()
REGISTRY = process_registry()
REGISTRY.register(non_well_founded_process(), "NW")
HIERARCHY = role_hierarchy()


def _engine() -> OnlineMonitor:
    return OnlineMonitor(REGISTRY, hierarchy=HIERARCHY)


class CaseEngineMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = _engine()
        self.pending = {case: list(DAY.trail.for_case(case)) for case in CASES}
        #: case -> every entry the engine accepted, in arrival order.
        self.accepted: dict[str, list] = {}
        self.minute = 0

    def _feed(self, item) -> None:
        observation = self.engine.observe(item)
        self.accepted.setdefault(item.case, []).append(item)
        assert observation.state is self.engine.case_state(item.case)
        assert set(observation.raised) <= set(
            self.engine.case_findings(item.case)
        )

    @precondition(lambda self: any(self.pending.values()))
    @rule(data=st.data())
    def feed_hospital_entry(self, data):
        case = data.draw(
            st.sampled_from([c for c in CASES if self.pending[c]])
        )
        self._feed(self.pending[case].pop(0))

    @rule(n=st.integers(min_value=1, max_value=2), data=st.data())
    def feed_unknown_prefix(self, n, data):
        template = data.draw(st.sampled_from(DAY.trail.entries))
        self._feed(replace(template, case=f"ZZ-{n}"))

    @rule(n=st.integers(min_value=1, max_value=2))
    def feed_non_well_founded(self, n):
        self.minute += 1
        self._feed(entry(f"NW-{n}", "T", self.minute))

    def _requeue(self, case: str) -> None:
        state, replayed, kind = self.engine.requeue(case)
        assert replayed == len(self.accepted[case])
        assert state is self.engine.case_state(case)
        assert kind is self.engine.case_failure_kind(case)

    @precondition(lambda self: self.engine.failed_cases())
    @rule(data=st.data())
    def requeue_contained_case(self, data):
        self._requeue(data.draw(st.sampled_from(self.engine.failed_cases())))

    @precondition(lambda self: self.accepted)
    @rule(data=st.data())
    def requeue_any_case(self, data):
        """Quarantine usually holds contained cases, but the router's
        last-resort handler can quarantine a case in any state."""
        self._requeue(data.draw(st.sampled_from(sorted(self.accepted))))

    @invariant()
    def cases_read_as_on_a_fresh_engine(self):
        fresh = _engine()
        for items in self.accepted.values():
            for item in items:
                fresh.observe(item)
        # (A requeued case keeps its place in first-seen order.)
        assert self.engine.cases() == fresh.cases()
        for case in self.accepted:
            assert self.engine.case_record(case) == fresh.case_record(case)
            assert self.engine.case_findings(case) == fresh.case_findings(
                case
            )


CaseEngineMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestCaseEngine = CaseEngineMachine.TestCase
