"""Property: compiled replay is observationally identical to interpreted.

The purpose automaton (:mod:`repro.compile`) memoizes Algorithm 1's
deduplicated step function; these tests pin the contract that doing so
is invisible — same verdict, same failure point, same per-step records,
same resumability — across the paper's appendix examples, both worked
scenarios (healthcare and insurance), and randomized generator trails,
for every way a table comes to be (fresh and growing, eagerly compiled,
decoded from its RPTB artifact) and for explosion-induced interpreted
fallback.
"""

from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from repro.audit import LogEntry, Status
from repro.bpmn import encode
from repro.compile import (
    PurposeAutomaton,
    compile_automaton,
    decode_table,
    encode_table,
    fingerprint_encoded,
)
from repro.core import ComplianceChecker
from repro.core.compliance import FrontierExplosionError
from repro.scenarios import (
    fig7_process,
    fig8_process,
    fig9_process,
    fig10_process,
    hospital_day,
    insurance_audit_trail,
    insurance_registry,
    insurance_role_hierarchy,
    paper_audit_trail,
    parallel_process,
    process_registry,
    role_hierarchy,
)
from repro.testing import assert_equivalent_verdicts


def entry(task, minute, role, status=Status.SUCCESS, case="X-1"):
    return LogEntry(
        user="U",
        role=role,
        action="work",
        obj=None,
        task=task,
        case=case,
        timestamp=datetime(2010, 1, 1, 9, 0) + timedelta(minutes=minute),
        status=status,
    )


def compiled_twin(process, hierarchy=None):
    """(interpreted, compiled) checkers over the same process."""
    interpreted = ComplianceChecker(encode(process), hierarchy=hierarchy)
    compiled = ComplianceChecker(encode(process), hierarchy=hierarchy)
    automaton = PurposeAutomaton(
        fingerprint=fingerprint_encoded(compiled.encoded),
        purpose=compiled.purpose,
        roles=compiled.encoded.roles,
        hierarchy=hierarchy,
    )
    compiled.attach_automaton(automaton)
    return interpreted, compiled


class TestAppendixScenarios:
    """Figs 7-10 of the paper, driven over hand-picked trails that hit
    every outcome class: compliant completion, open prefix, wrong task,
    error-path recovery, and loop re-entry."""

    def check_all(self, process, trails):
        interpreted, compiled = compiled_twin(process)
        for trail in trails:
            assert_equivalent_verdicts(
                interpreted.check(trail),
                compiled.check(trail),
                context=process.purpose,
            )

    def test_fig7(self):
        self.check_all(
            fig7_process(),
            [
                [entry("T", 0, "P")],
                [],
                [entry("T", 0, "P"), entry("T", 1, "P")],
                [entry("Nope", 0, "P")],
                [entry("T", 0, "Q")],  # wrong pool role
                [entry("T", 0, "P", status=Status.FAILURE)],
            ],
        )

    def test_fig8(self):
        self.check_all(
            fig8_process(),
            [
                [entry("T", 0, "P"), entry("T1", 1, "P")],
                [entry("T", 0, "P"), entry("T2", 1, "P")],
                [entry("T1", 0, "P")],  # gateway not reached yet
                [entry("T", 0, "P"), entry("T1", 1, "P"), entry("T2", 2, "P")],
            ],
        )

    def test_fig9_error_path(self):
        self.check_all(
            fig9_process(),
            [
                [entry("T", 0, "P"), entry("T2", 1, "P")],
                [
                    entry("T", 0, "P", status=Status.FAILURE),
                    entry("T1", 1, "P"),
                ],
                [entry("T", 0, "P"), entry("T1", 1, "P")],  # no error raised
                [entry("T", 0, "P", status=Status.FAILURE), entry("T2", 1, "P")],
            ],
        )

    def test_fig10_message_loop(self):
        self.check_all(
            fig10_process(),
            [
                [entry("T1", 0, "P1"), entry("T2", 1, "P2")],
                [
                    entry("T1", 0, "P1"),
                    entry("T2", 1, "P2"),
                    entry("T1", 2, "P1"),
                    entry("T2", 3, "P2"),
                ],
                [entry("T2", 0, "P2")],  # P2 cannot start the conversation
            ],
        )


class TestWorkedScenarios:
    def assert_scenario(self, registry, hierarchy, trail):
        by_prefix = {
            registry.case_prefix_of(p): p for p in registry.purposes()
        }
        twins = {}
        for case in trail.cases():
            purpose = by_prefix[case.partition("-")[0]]
            if purpose not in twins:
                twins[purpose] = compiled_twin(
                    registry.process_for(purpose), hierarchy
                )
            interpreted, compiled = twins[purpose]
            assert_equivalent_verdicts(
                interpreted.check(trail.for_case(case)),
                compiled.check(trail.for_case(case)),
                context=case,
            )

    def test_healthcare_paper_trail(self):
        self.assert_scenario(
            process_registry(), role_hierarchy(), paper_audit_trail()
        )

    def test_insurance_trail(self):
        self.assert_scenario(
            insurance_registry(),
            insurance_role_hierarchy(),
            insurance_audit_trail(),
        )


class TestDiskTier:
    def test_document_round_trip_replays_identically(self):
        """Artifact-loaded automata (no retained COWS terms) must replay
        exactly like the freshly compiled ones they were saved from."""
        registry = process_registry()
        hierarchy = role_hierarchy()
        trail = paper_audit_trail()
        by_prefix = {
            registry.case_prefix_of(p): p for p in registry.purposes()
        }
        for purpose in registry.purposes():
            donor = ComplianceChecker(
                registry.encoded_for(purpose), hierarchy=hierarchy
            )
            loaded = decode_table(encode_table(compile_automaton(donor)))

            def factory(purpose=purpose):
                return ComplianceChecker(
                    registry.encoded_for(purpose), hierarchy=hierarchy
                )

            compiled = factory().attach_automaton(loaded)
            interpreted = factory()
            for case in trail.cases():
                if by_prefix[case.partition("-")[0]] != purpose:
                    continue
                assert_equivalent_verdicts(
                    interpreted.check(trail.for_case(case)),
                    compiled.check(trail.for_case(case)),
                    context=f"{purpose}/{case}",
                )


class TestGeneratedTrails:
    @given(
        n_cases=st.integers(min_value=1, max_value=6),
        rate=st.floats(min_value=0.0, max_value=0.9),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_hospital_day_verdicts_identical(self, n_cases, rate, seed):
        workload = hospital_day(
            n_cases=n_cases, violation_rate=rate, seed=seed
        )
        hierarchy = role_hierarchy()
        interpreted = ComplianceChecker(workload.encoded, hierarchy=hierarchy)
        compiled = ComplianceChecker(workload.encoded, hierarchy=hierarchy)
        automaton = PurposeAutomaton(
            fingerprint=fingerprint_encoded(
                workload.encoded, hierarchy=hierarchy
            ),
            purpose=compiled.purpose,
            roles=workload.encoded.roles,
            hierarchy=hierarchy,
        )
        compiled.attach_automaton(automaton)
        for case in workload.trail.cases():
            case_trail = workload.trail.for_case(case)
            left = interpreted.check(case_trail)
            right = compiled.check(case_trail)
            assert_equivalent_verdicts(left, right, context=case)
            assert right.compliant == workload.ground_truth[case]


class TestGuardParity:
    def test_frontier_explosion_raises_identically(self):
        """Both engines must refuse oversized frontiers the same way —
        the compiled path checks the memoized size *before* recording."""
        process = parallel_process(3)
        interpreted = ComplianceChecker(encode(process), max_frontier=2)
        compiled = ComplianceChecker(encode(process), max_frontier=2)
        automaton = PurposeAutomaton(
            fingerprint=fingerprint_encoded(compiled.encoded),
            purpose=compiled.purpose,
            roles=compiled.encoded.roles,
        )
        compiled.attach_automaton(automaton)
        # B-tasks of the parallel block grow the frontier: 1, 2, 3...
        trail = [
            entry("T0", 0, "Staff"),
            entry("B1", 1, "Staff"),
            entry("B2", 2, "Staff"),
            entry("B3", 3, "Staff"),
        ]
        with pytest.raises(FrontierExplosionError) as left:
            interpreted.check(trail)
        with pytest.raises(FrontierExplosionError) as right:
            compiled.check(trail)
        assert str(left.value) == str(right.value)


class TestTableTier:
    """Three table rungs against the interpreted oracle.

    Property: for arbitrary generated trails — including mid-case
    truncation and entries whose ``(task, role)`` pair is outside the
    compiled alphabet — a fresh growing table, an eagerly compiled
    table, and a table decoded from its RPTB artifact produce canonical
    verdict digests byte-identical to interpreted replay.
    """

    @staticmethod
    def rungs(workload, hierarchy):
        def factory():
            return ComplianceChecker(workload.encoded, hierarchy=hierarchy)

        growing = factory()
        growing.attach_automaton(
            PurposeAutomaton(
                fingerprint=fingerprint_encoded(
                    workload.encoded, hierarchy=hierarchy
                ),
                purpose=growing.purpose,
                roles=workload.encoded.roles,
                hierarchy=hierarchy,
            )
        )
        eager = factory()
        decoded = decode_table(encode_table(compile_automaton(eager)))
        return {
            "interpreted": factory(),
            "growing": growing,
            "eager": eager,
            "decoded": factory().attach_automaton(decoded),
        }

    @given(
        n_cases=st.integers(min_value=1, max_value=4),
        rate=st.floats(min_value=0.0, max_value=0.9),
        seed=st.integers(min_value=0, max_value=10_000),
        cut=st.floats(min_value=0.0, max_value=1.0),
        alien=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_three_tiers_byte_identical(
        self, n_cases, rate, seed, cut, alien
    ):
        from dataclasses import replace

        from repro.testing import canonical_digest

        workload = hospital_day(
            n_cases=n_cases, violation_rate=rate, seed=seed
        )
        rungs = self.rungs(workload, role_hierarchy())
        for case in workload.trail.cases():
            entries = list(workload.trail.for_case(case))
            if cut < 1.0:
                # Mid-case truncation: verdicts over the open prefix.
                entries = entries[: max(0, round(len(entries) * cut))]
            if alien and entries:
                # An entry outside the compiled alphabet: unknown task
                # AND unknown role, so neither the symbol interner nor
                # the keyer caches have ever seen the pair.
                middle = len(entries) // 2
                entries.insert(
                    middle,
                    replace(
                        entries[middle],
                        task="NotInAnyProcess",
                        role="NoSuchRole",
                    ),
                )
            digests = {
                rung: canonical_digest(checker.check(entries))
                for rung, checker in rungs.items()
            }
            assert len(set(digests.values())) == 1, (case, digests)
