"""The interpreted oracle of the system-level suites.

Every engine replays through its purpose automaton's dense table, so a
batch audit or a fresh monitor is no independent reference any more.
These helpers replay through a
:class:`~repro.core.compliance.ComplianceChecker` with no automaton
attached: interpreted Algorithm 1, which every table is held to.
"""

from __future__ import annotations

from typing import Iterable

from repro.audit.model import AuditTrail, LogEntry
from repro.core.compliance import ComplianceChecker, canonical_digest
from repro.errors import ReproError


def interpreted_twin(checker, purpose: str = "") -> ComplianceChecker:
    """*checker*'s process and hierarchy, with no automaton attached.

    Shaped as a ``checker_wrapper``: ``OnlineMonitor(...,
    checker_wrapper=interpreted_twin)`` is a reference engine that
    replays every case interpreted, states and records included.
    """
    twin = ComplianceChecker(
        checker.encoded, hierarchy=checker.observables.hierarchy
    )
    assert twin.automaton is None
    return twin


def interpreted_digests(
    registry, trail: Iterable[LogEntry], hierarchy=None
) -> dict[str, str]:
    """Each case's canonical digest under interpreted Algorithm 1.

    A case whose purpose is unknown, or that the engine cannot replay
    (a process outside the decidable fragment), has none — as it has no
    ``replay`` in a batch report.
    """
    checkers: dict[str, ComplianceChecker] = {}
    digests: dict[str, str] = {}
    for case, entries in AuditTrail(trail).by_case().items():
        try:
            purpose = registry.purpose_of_case(case)
            if purpose not in checkers:
                checkers[purpose] = ComplianceChecker(
                    registry.encoded_for(purpose), hierarchy=hierarchy
                )
            result = checkers[purpose].check(entries)
        except ReproError:
            continue
        assert checkers[purpose].automaton is None
        digests[case] = canonical_digest(result)
    return digests
