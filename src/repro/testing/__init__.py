"""Deterministic fault injection for exercising the resilience layer.

See :mod:`repro.testing.faults` and :mod:`repro.testing.differential`.
"""

from repro.testing.differential import (
    assert_equivalent_verdicts,
    canonical_digest,
    verdict_digest,
)
from repro.testing.faults import (
    FaultInjector,
    FaultPlan,
    FaultyChecker,
    FaultySession,
    InjectedFaultError,
    cases_started,
    corrupt_artifact,
    corrupt_store_row,
    corrupt_wal_tail,
    corrupt_xes_event,
    disk_full_hook,
    reset_fault_counters,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultyChecker",
    "FaultySession",
    "InjectedFaultError",
    "cases_started",
    "corrupt_artifact",
    "corrupt_store_row",
    "corrupt_wal_tail",
    "corrupt_xes_event",
    "disk_full_hook",
    "reset_fault_counters",
    "assert_equivalent_verdicts",
    "canonical_digest",
    "verdict_digest",
]
