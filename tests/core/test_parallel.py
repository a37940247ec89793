"""Tests for parallel case auditing (Section 7's parallelization claim).

``PurposeControlAuditor(workers=N)`` runs the auditor itself in every
pool worker, so its report must equal the serial one case by case.
"""

import pickle
from dataclasses import replace

import pytest

from repro.audit import AuditTrail
from repro.core import PurposeControlAuditor, SeverityModel
from repro.core.resilience import OutcomeKind
from repro.obs import Telemetry, Tracer
from repro.policy import PolicyDecisionPoint
from repro.scenarios import (
    consent_registry,
    extended_policy,
    hospital_day,
    paper_audit_trail,
    process_registry,
    role_hierarchy,
    user_directory,
)
from repro.testing import canonical_digest


@pytest.fixture(scope="module")
def registry():
    return process_registry()


def audit(registry, trail, **options):
    return PurposeControlAuditor(registry, **options).audit(trail)


def assert_same_report(parallel, serial):
    """Case by case: outcome, purpose, infringements, retries, digest."""
    assert list(parallel.cases) == list(serial.cases)
    for case, expected in serial.cases.items():
        got = parallel.cases[case]
        assert got.outcome is expected.outcome, case
        assert got.purpose == expected.purpose, case
        assert got.infringements == expected.infringements, case
        assert got.retries == expected.retries, case
        assert (got.replay is None) == (expected.replay is None), case
        if expected.replay is not None:
            assert canonical_digest(got.replay) == canonical_digest(
                expected.replay
            ), case
    assert parallel.summary() == serial.summary()


def counters(telemetry):
    """The counters a serial and a pooled audit must agree on."""
    registry = telemetry.registry
    return {
        name: registry.counter(name).samples()
        for name in (
            "cases_audited_total",
            "infringements_total",
            "audit_errors_total",
            "replay_entries_total",
        )
    }


class TestSerialPath:
    def test_paper_trail_verdicts(self, registry):
        report = audit(registry, paper_audit_trail(), workers=1)
        assert report.cases["HT-1"].outcome is OutcomeKind.COMPLIANT
        # without a hierarchy CT-1's Cardiologist cannot match Physician:
        assert report.cases["CT-1"].outcome is OutcomeKind.INVALID_EXECUTION
        for case in ("HT-10", "HT-11", "HT-20", "HT-21", "HT-30"):
            assert report.cases[case].outcome is OutcomeKind.INVALID_EXECUTION

    def test_unknown_prefix_is_distinguishable_from_non_compliant(self, registry):
        entry = replace(paper_audit_trail()[0], case="ZZ-1")
        result = audit(registry, AuditTrail([entry]), workers=1).cases["ZZ-1"]
        assert result.outcome is OutcomeKind.UNKNOWN_PURPOSE
        assert "ZZ" in result.infringements[0].detail

    def test_hierarchy_is_forwarded_to_checkers(self, registry):
        # With the Cardiologist:Physician specialization, CT-1's entries
        # match the Physician pool.
        report = audit(
            registry, paper_audit_trail(), workers=1, hierarchy=role_hierarchy()
        )
        assert report.cases["CT-1"].outcome is OutcomeKind.COMPLIANT

    def test_max_silent_states_contained_as_undecidable(self, registry):
        # The silent-state bound tripping does not abort the batch, in a
        # pool as serially: the affected cases come back UNDECIDABLE.
        trail = paper_audit_trail()
        serial = audit(registry, trail, max_silent_states=1)
        pooled = audit(registry, trail, max_silent_states=1, workers=2)
        assert_same_report(pooled, serial)
        undecidable = [
            r for r in pooled.cases.values()
            if r.outcome is OutcomeKind.UNDECIDABLE
        ]
        assert undecidable
        assert all(
            r.error_type == "NotFinitelyObservableError" for r in undecidable
        )
        assert all(r.states_explored is not None for r in undecidable)


class TestMultiprocessPath:
    def test_workers_agree_with_serial(self, registry):
        workload = hospital_day(n_cases=12, violation_rate=0.25, seed=2)
        serial = audit(registry, workload.trail, hierarchy=role_hierarchy())
        multi = audit(
            registry, workload.trail, hierarchy=role_hierarchy(), workers=2
        )
        assert_same_report(multi, serial)
        assert {
            case: result.outcome is OutcomeKind.COMPLIANT
            for case, result in multi.cases.items()
        } == workload.ground_truth

    def test_every_case_gets_an_outcome(self, registry):
        workload = hospital_day(n_cases=7, violation_rate=0.0, seed=3)
        report = audit(
            registry, workload.trail, hierarchy=role_hierarchy(), workers=2
        )
        assert list(report.cases) == workload.trail.cases()
        assert all(r.compliant for r in report.cases.values())

    def test_hierarchy_forwarded_across_processes(self, registry):
        report = audit(
            registry, paper_audit_trail(), workers=2, hierarchy=role_hierarchy()
        )
        assert report.cases["CT-1"].outcome is OutcomeKind.COMPLIANT

    def test_one_case_runs_serially(self, registry, monkeypatch):
        import repro.core.parallel as parallel

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-case trail must not start a pool")

        monkeypatch.setattr(parallel, "audit_in_pool", no_pool)
        trail = paper_audit_trail()
        report = audit(registry, trail.for_case("HT-1"), workers=4)
        assert list(report.cases) == ["HT-1"]


class TestReportIdentity:
    """A ``workers=2`` report equals the serial one case by case."""

    def test_paper_trail_with_hierarchy(self, registry):
        trail = paper_audit_trail()
        options = dict(hierarchy=role_hierarchy())
        assert_same_report(
            audit(registry, trail, workers=2, **options),
            audit(registry, trail, **options),
        )

    def test_hospital_day_with_violations_policy_and_severity(self, registry):
        workload = hospital_day(n_cases=40, violation_rate=0.4, seed=11)
        pdp = PolicyDecisionPoint(
            extended_policy(),
            user_directory(),
            role_hierarchy(),
            registry,
            consent_registry(),
        )
        options = dict(
            hierarchy=role_hierarchy(),
            pdp=pdp,
            severity_model=SeverityModel(registry),
        )
        serial = audit(registry, workload.trail, **options)
        assert serial.infringing_cases
        assert_same_report(
            audit(registry, workload.trail, workers=2, **options), serial
        )

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_compiled_with_an_automaton_dir(self, registry, tmp_path, warm):
        workload = hospital_day(n_cases=30, violation_rate=0.3, seed=5)
        serial = audit(registry, workload.trail, hierarchy=role_hierarchy())
        directory = tmp_path / "automata"
        if warm:  # a serial compiled audit leaves the artifacts behind
            audit(
                registry, workload.trail, hierarchy=role_hierarchy(),
                automaton_dir=str(directory),
            )
            assert list(directory.glob("*.table.bin"))
        pooled = audit(
            registry, workload.trail, hierarchy=role_hierarchy(),
            automaton_dir=str(directory), workers=2,
        )
        assert_same_report(pooled, serial)
        assert len(list(directory.glob("*.table.bin"))) == 2

    def test_compiled_without_a_directory(self, registry):
        trail = paper_audit_trail()
        assert_same_report(
            audit(
                registry, trail, hierarchy=role_hierarchy(), compiled=True,
                workers=2,
            ),
            audit(registry, trail, hierarchy=role_hierarchy()),
        )


class TestWorkerTelemetry:
    def test_worker_counters_merge_into_parent_registry(self, registry):
        telemetry = Telemetry.create()
        trail = paper_audit_trail()
        report = audit(registry, trail, workers=2, telemetry=telemetry)
        reg = telemetry.registry
        assert reg.counter("cases_audited_total").total == len(report.cases)
        # every replayed entry is accounted for under some outcome label
        entries = reg.counter("replay_entries_total")
        assert entries.total == len(trail)
        assert entries.value(outcome="rejected") > 0
        # the paper trail has invalid executions (and CT-1 without a
        # hierarchy), so infringement counters must be populated by kind
        assert reg.counter("infringements_total").value(
            kind="invalid-execution"
        ) > 0
        assert 1 <= reg.gauge("parallel_workers").value() <= 2

    def test_unknown_purpose_counted_by_kind(self, registry):
        first = paper_audit_trail()[0]
        trail = AuditTrail(
            [replace(first, case="ZZ-1"), replace(first, case="ZZ-2")]
        )
        telemetry = Telemetry.create()
        audit(registry, trail, workers=2, telemetry=telemetry)
        assert telemetry.registry.counter("infringements_total").value(
            kind="unknown-purpose"
        ) == 2

    def test_disabled_telemetry_hands_back_no_stats(self, registry):
        workload = hospital_day(n_cases=3, violation_rate=0.0, seed=5)
        report = audit(registry, workload.trail, workers=2)
        assert list(report.cases) == workload.trail.cases()

    def test_counters_equal_the_serial_run(self, registry):
        workload = hospital_day(n_cases=20, violation_rate=0.3, seed=7)
        first = workload.trail[0]
        trail = workload.trail.merged_with(
            AuditTrail([replace(first, case="ZZ-1")])
        )
        serial, pooled = Telemetry.create(), Telemetry.create()
        audit(registry, trail, hierarchy=role_hierarchy(), telemetry=serial)
        audit(
            registry, trail, hierarchy=role_hierarchy(), telemetry=pooled,
            workers=2,
        )
        assert counters(pooled) == counters(serial)
        assert counters(serial)["replay_entries_total"]

    def test_spans_parent_to_one_trace(self, registry):
        telemetry = Telemetry.create(tracer=Tracer())
        trail = paper_audit_trail()
        audit(registry, trail, workers=2, telemetry=telemetry)
        spans = telemetry.tracer.roots
        [root] = [s for s in spans if s.name == "audit.parallel"]
        cases = [s for s in spans if s.name == "audit.case"]
        assert sorted(s.attrs["case"] for s in cases) == sorted(trail.cases())
        assert {s.trace_id for s in cases} == {root.trace_id}
        assert {s.parent_id for s in cases} == {root.span_id}


class TestWorkerOptions:
    def test_initializer_arguments_pickle(self, tmp_path):
        """What the pool initializer receives survives pickling, so the
        pool also works where workers are spawned, not forked."""
        import repro.core.parallel as parallel
        from repro.testing import FaultInjector, FaultPlan

        registry = process_registry()
        for purpose in registry.purposes():  # as a compiled parent leaves it
            registry.encoded_for(purpose)
        auditor = PurposeControlAuditor(
            registry,
            hierarchy=role_hierarchy(),
            automaton_dir=str(tmp_path),
            checker_wrapper=FaultInjector(plan=FaultPlan(name="inert")),
            workers=2,
        )
        options = pickle.loads(pickle.dumps(auditor._options))
        trail = paper_audit_trail()
        serial = PurposeControlAuditor(
            registry, hierarchy=role_hierarchy()
        ).audit(trail)
        try:
            parallel._initialize_worker(options)
            for case in trail.cases():
                result, *_ = parallel._audit_one(
                    (case, trail.for_case(case).entries)
                )
                assert canonical_digest(result.replay) == canonical_digest(
                    serial.cases[case].replay
                ), case
        finally:
            parallel._WORKER_AUDITOR = None
