"""E16 — compiled replay: cold vs. warm, compiled vs. interpreted.

The purpose-automaton compiler (:mod:`repro.compile`, PR: compiled
replay) claims that once the automaton is warm, replaying a case is one
table cell read per entry — and that this beats the interpreted Algorithm 1
by a wide margin on the hospital-scale workload of Section 1/E11.  This
experiment measures both claims and records the tables CI and
EXPERIMENTS.md quote:

* **cold vs. warm** — the first pass pays lazy subset construction
  (and, on the disk tier, artifact deserialization); later passes are
  pure lookups;
* **compiled vs. interpreted** — same trails, same verdicts, wall-clock
  ratio.  The CI job ``compiled-replay`` runs this file and **fails**
  if the warm compiled path is not faster than the interpreted one.
"""

import time

import pytest

from repro.compile import (
    AutomatonCache,
    PurposeAutomaton,
    compile_automaton,
    decode_table,
    encode_table,
    fingerprint_encoded,
)
from repro.core import ComplianceChecker
from repro.scenarios import hospital_day, role_hierarchy

#: The warm compiled path must beat interpreted replay at least this
#: much on the hospital workload (the PR's acceptance floor; measured
#: ratios are far higher, see benchmarks/results/).
MIN_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def day():
    return hospital_day(n_cases=300, violation_rate=0.1, seed=77)


@pytest.fixture(scope="module")
def per_case(day):
    return {case: day.trail.for_case(case) for case in day.trail.cases()}


def interpreted_checker(day):
    return ComplianceChecker(day.encoded, role_hierarchy())


def compiled_checker(day, max_states=50_000):
    hierarchy = role_hierarchy()
    checker = ComplianceChecker(day.encoded, hierarchy)
    automaton = PurposeAutomaton(
        fingerprint=fingerprint_encoded(day.encoded, hierarchy=hierarchy),
        purpose=checker.purpose,
        roles=day.encoded.roles,
        hierarchy=hierarchy,
        max_states=max_states,
    )
    checker.attach_automaton(automaton)
    return checker, automaton


def audit_all(checker, per_case):
    return {
        case: checker.check(trail).compliant
        for case, trail in per_case.items()
    }


def timed(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


class TestColdVsWarm:
    def test_cold_vs_warm_table(self, benchmark, day, per_case, table):
        def run():
            # cold: fresh automaton, the pass pays subset construction
            checker, automaton = compiled_checker(day)
            cold_started = time.perf_counter()
            cold_verdicts = audit_all(checker, per_case)
            cold_s = time.perf_counter() - cold_started

            # warm: same automaton, pure transition lookups
            warm_s, warm_verdicts = timed(lambda: audit_all(checker, per_case))
            assert warm_verdicts == cold_verdicts

            # disk tier: artifact round trip, then replay without any
            # engine work (the automaton already covers the workload)
            load_started = time.perf_counter()
            clone = decode_table(encode_table(automaton))
            load_s = time.perf_counter() - load_started
            disk_checker = ComplianceChecker(day.encoded, role_hierarchy())
            disk_checker.attach_automaton(clone)
            disk_s, disk_verdicts = timed(
                lambda: audit_all(disk_checker, per_case)
            )
            assert disk_verdicts == cold_verdicts

            table.comment(
                "E16: cold vs warm compiled replay "
                f"({day.case_count} cases, {len(day.trail)} entries)"
            )
            table.row("automaton_states", automaton.n_states)
            table.row("automaton_transitions", automaton.transition_count)
            table.row("cold_pass_s", f"{cold_s:.4f}")
            table.row("warm_pass_s", f"{warm_s:.4f}")
            table.row("cold_over_warm", f"{cold_s / warm_s:.1f}x")
            table.row("artifact_rebuild_s", f"{load_s:.4f}")
            table.row("disk_tier_warm_pass_s", f"{disk_s:.4f}")
            assert warm_s < cold_s

        benchmark.pedantic(run, rounds=1, iterations=1)


class TestCompiledVsInterpreted:
    def test_speedup_table(self, benchmark, day, per_case, table):
        def run():
            interpreted = interpreted_checker(day)
            compiled, automaton = compiled_checker(day)
            # warm both paths: WeakNext cache for the interpreted
            # engine, transition table for the compiled one
            base_verdicts = audit_all(interpreted, per_case)
            compiled_verdicts = audit_all(compiled, per_case)
            assert compiled_verdicts == base_verdicts
            assert compiled_verdicts == day.ground_truth

            interpreted_s, _ = timed(lambda: audit_all(interpreted, per_case))
            compiled_s, _ = timed(lambda: audit_all(compiled, per_case))
            speedup = interpreted_s / compiled_s

            entries = len(day.trail)
            table.comment(
                "E16: warm compiled vs warm interpreted replay "
                f"({day.case_count} cases, {entries} entries)"
            )
            table.row("interpreted_pass_s", f"{interpreted_s:.4f}")
            table.row("compiled_pass_s", f"{compiled_s:.4f}")
            table.row("speedup", f"{speedup:.1f}x")
            table.row(
                "interpreted_entries_per_s", f"{entries / interpreted_s:.0f}"
            )
            table.row("compiled_entries_per_s", f"{entries / compiled_s:.0f}")
            table.row("automaton_states", automaton.n_states)
            # the CI gate: compiled replay must never be slower, and on
            # this workload it must clear the acceptance floor
            assert speedup > 1.0, "compiled replay slower than interpreted"
            assert speedup >= MIN_SPEEDUP

        benchmark.pedantic(run, rounds=1, iterations=1)

    def test_warm_compiled_throughput(self, benchmark, day, per_case):
        compiled, _ = compiled_checker(day)
        audit_all(compiled, per_case)  # warm

        verdicts = benchmark(lambda: audit_all(compiled, per_case))
        assert verdicts == day.ground_truth


class TestArtifactReuse:
    def test_artifact_cache_round_trip_table(
        self, benchmark, day, per_case, table, tmp_path
    ):
        """Persisting and reloading the automaton is far cheaper than
        recompiling it — the reason parallel audits ship artifacts."""

        def run():
            checker, automaton = compiled_checker(day)
            compile_started = time.perf_counter()
            audit_all(checker, per_case)  # lazy compile while auditing
            compile_s = time.perf_counter() - compile_started

            cache = AutomatonCache(tmp_path)
            save_started = time.perf_counter()
            cache.save(automaton)
            save_s = time.perf_counter() - save_started
            load_started = time.perf_counter()
            loaded = cache.load(automaton.purpose, automaton.fingerprint)
            load_s = time.perf_counter() - load_started
            assert loaded is not None

            table.comment("E16: artifact persistence vs recompilation")
            table.row("first_audit_with_lazy_compile_s", f"{compile_s:.4f}")
            table.row("artifact_save_s", f"{save_s:.4f}")
            table.row("artifact_load_s", f"{load_s:.4f}")
            assert load_s < compile_s

        benchmark.pedantic(run, rounds=1, iterations=1)


class TestEagerCompile:
    def test_exhaustive_compile_cost(self, benchmark, day, table):
        """`repro compile` cost: eager BFS over the canonical alphabet."""

        def run():
            checker = interpreted_checker(day)
            started = time.perf_counter()
            automaton = compile_automaton(checker)
            elapsed = time.perf_counter() - started
            table.comment("E16: eager `repro compile` of the Fig. 1 process")
            table.row("states", automaton.n_states)
            table.row("transitions", automaton.transition_count)
            table.row("compile_s", f"{elapsed:.3f}")

        benchmark.pedantic(run, rounds=1, iterations=1)
