"""E10 — per-case independence and parallelization (Section 7).

"The analysis of process instances is independent from each other,
allowing for massive parallelization."  What can be *verified* on any
machine is the independence: verdicts are identical however the cases
are partitioned, and a partition's cost is the sum of its own cases
only.  ``PurposeControlAuditor(workers=N)`` runs the same auditor in
every pool worker.  Wall-clock speedup additionally needs multiple
cores; on a single-core host (like this CI box) the multiprocessing
path only adds overhead, which the table reports honestly.
"""

import os
import time

import pytest

from repro.core import ComplianceChecker, PurposeControlAuditor
from repro.scenarios import hospital_day, process_registry, role_hierarchy


def verdicts(registry, trail, workers):
    report = PurposeControlAuditor(registry, workers=workers).audit(trail)
    return {case: result.compliant for case, result in report.cases.items()}


@pytest.fixture(scope="module")
def workload():
    return hospital_day(n_cases=60, violation_rate=0.15, seed=9)


class TestIndependence:
    def test_partitions_agree_with_serial(self, benchmark, workload):
        def run():
            registry = process_registry()
            assert (
                verdicts(registry, workload.trail, workers=1)
                == verdicts(registry, workload.trail, workers=2)
                == workload.ground_truth
            )

        benchmark.pedantic(run, rounds=1, iterations=1)

    def test_case_order_does_not_matter(self, benchmark, workload):
        def run():
            checker = ComplianceChecker(workload.encoded, role_hierarchy())
            cases = workload.trail.cases()
            forward = {
                c: checker.check(workload.trail.for_case(c)).compliant for c in cases
            }
            backward = {
                c: checker.check(workload.trail.for_case(c)).compliant
                for c in reversed(cases)
            }
            assert forward == backward

        benchmark.pedantic(run, rounds=1, iterations=1)


class TestThroughput:
    def test_serial_throughput(self, benchmark, workload, table):
        checker = ComplianceChecker(workload.encoded, role_hierarchy())
        cases = workload.trail.cases()
        for case in cases:  # warm
            checker.check(workload.trail.for_case(case))

        def audit_all():
            return sum(
                1
                for case in cases
                if checker.check(workload.trail.for_case(case)).compliant
            )

        compliant = benchmark(audit_all)
        table.comment("E10: warm serial throughput")
        table.row("cases", len(cases), "compliant", compliant)
        assert compliant == sum(workload.ground_truth.values())

    def test_worker_scaling_table(self, benchmark, workload, table):
        def run():
            registry = process_registry()
            cores = os.cpu_count() or 1
            table.comment(
                f"E10: worker scaling on a {cores}-core host (speedup needs "
                "cores; independence is what the algorithm guarantees)"
            )
            table.row("workers", "seconds", "correct")
            for workers in (1, 2):
                started = time.perf_counter()
                found = verdicts(registry, workload.trail, workers=workers)
                elapsed = time.perf_counter() - started
                table.row(workers, f"{elapsed:.2f}", found == workload.ground_truth)
                assert found == workload.ground_truth

        benchmark.pedantic(run, rounds=1, iterations=1)
