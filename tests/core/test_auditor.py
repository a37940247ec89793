"""Tests for the end-to-end purpose-control auditor."""

from datetime import datetime

import pytest

from repro.audit import inject_mimicry_case
from repro.core import (
    InfringementKind,
    PurposeControlAuditor,
    SeverityModel,
)
from repro.policy import ObjectRef, PolicyDecisionPoint
from repro.scenarios import (
    COMPLIANT_CASES,
    OPEN_CASES,
    REPURPOSED_CASES,
    consent_registry,
    extended_policy,
    paper_audit_trail,
    process_registry,
    role_hierarchy,
    user_directory,
)


@pytest.fixture(scope="module")
def registry():
    return process_registry()


@pytest.fixture(scope="module")
def auditor(registry):
    return PurposeControlAuditor(registry, hierarchy=role_hierarchy())


@pytest.fixture(scope="module")
def full_auditor(registry):
    pdp = PolicyDecisionPoint(
        extended_policy(),
        user_directory(),
        role_hierarchy(),
        registry,
        consent_registry(),
    )
    return PurposeControlAuditor(
        registry,
        hierarchy=role_hierarchy(),
        pdp=pdp,
        severity_model=SeverityModel(registry),
    )


@pytest.fixture(scope="module")
def report(full_auditor):
    return full_auditor.audit(paper_audit_trail())


class TestPaperTrailAudit:
    def test_all_cases_audited(self, report):
        assert set(report.cases) == COMPLIANT_CASES | OPEN_CASES | REPURPOSED_CASES

    def test_compliant_cases_clean(self, report):
        for case in COMPLIANT_CASES:
            assert report.cases[case].compliant, case

    def test_open_case_compliant_and_open(self, report):
        for case in OPEN_CASES:
            result = report.cases[case]
            assert result.compliant
            assert result.open

    def test_repurposed_cases_flagged(self, report):
        for case in REPURPOSED_CASES:
            result = report.cases[case]
            assert not result.compliant, case
            kinds = {i.kind for i in result.infringements}
            assert InfringementKind.INVALID_EXECUTION in kinds

    def test_report_properties(self, report):
        assert not report.compliant
        assert set(report.infringing_cases) == REPURPOSED_CASES
        assert len(report.infringements) == len(REPURPOSED_CASES)

    def test_summary_mentions_every_case(self, report):
        summary = report.summary()
        for case in report.cases:
            assert case in summary

    def test_severity_attached_to_infringing_cases(self, report):
        for case in REPURPOSED_CASES:
            assert report.cases[case].severity is not None
            assert report.cases[case].severity.score > 0

    def test_no_false_policy_violations(self, report):
        # The preventive PDP sees nothing wrong — the paper's very point.
        kinds = {i.kind for i in report.infringements}
        assert kinds == {InfringementKind.INVALID_EXECUTION}


class TestUnknownPurpose:
    def test_unknown_case_prefix_flagged(self, auditor):
        trail = inject_mimicry_case(
            paper_audit_trail().for_case("HT-1"),
            case="ZZ-1",
            user="Bob",
            role="Cardiologist",
            task="T06",
            obj="[Jane]EPR/Clinical",
            when=datetime(2010, 5, 1),
        )
        report = auditor.audit(trail)
        result = report.cases["ZZ-1"]
        assert not result.compliant
        assert result.purpose is None
        assert result.infringements[0].kind is InfringementKind.UNKNOWN_PURPOSE


class TestObjectCentricAudit:
    def test_audit_object_covers_touching_cases(self, auditor):
        report = auditor.audit_object(
            paper_audit_trail(), ObjectRef.parse("[Jane]EPR")
        )
        assert set(report.cases) == {"HT-1", "HT-11"}
        assert report.cases["HT-1"].compliant
        assert not report.cases["HT-11"].compliant

    def test_audit_object_david(self, auditor):
        report = auditor.audit_object(
            paper_audit_trail(), ObjectRef.parse("[David]EPR")
        )
        assert set(report.cases) == {"HT-2", "HT-20", "HT-30"}
        assert report.cases["HT-2"].compliant

    def test_untouched_object_yields_empty_report(self, auditor):
        report = auditor.audit_object(
            paper_audit_trail(), ObjectRef.parse("[Nobody]EPR")
        )
        assert report.cases == {}
        assert report.compliant


class TestCheckerSharing:
    def test_checker_cached_per_purpose(self, auditor):
        engine = auditor.engine
        assert engine.checker_for("treatment") is engine.checker_for("treatment")

    def test_checkers_differ_across_purposes(self, auditor):
        engine = auditor.engine
        assert engine.checker_for("treatment") is not engine.checker_for(
            "clinicaltrial"
        )

    def test_batch_audit_tracks_no_case_in_the_engine(self, registry):
        from repro.obs import Telemetry

        telemetry = Telemetry.create()
        auditor = PurposeControlAuditor(
            registry, hierarchy=role_hierarchy(), telemetry=telemetry
        )
        auditor.audit(paper_audit_trail())
        assert auditor.engine.cases() == []
        names = {instrument.name for instrument in telemetry.registry.collect()}
        assert "audit_errors_total" in names
        assert not [name for name in names if name.startswith("monitor_")]
