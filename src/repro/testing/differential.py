"""Differential testing of compiled vs. interpreted replay.

The purpose-automaton compiler (:mod:`repro.compile`) promises that a
compiled replay is *observationally identical* to the interpreted
Algorithm 1: same verdict, same failure point, same per-step outcome
records, same resumability classification.  This module pins down what
"identical" means — :func:`~repro.core.compliance.verdict_digest`
projects a :class:`~repro.core.compliance.ComplianceResult` onto exactly
the fields both engines must agree on (it lives beside the result, since
the serving path digests too, and is re-exported here), and
:func:`assert_equivalent_verdicts` diff-reports the first divergence.
"""

from __future__ import annotations

from repro.core.compliance import (
    ComplianceResult,
    canonical_digest,
    verdict_digest,
)

__all__ = ["assert_equivalent_verdicts", "canonical_digest", "verdict_digest"]


def assert_equivalent_verdicts(
    interpreted: ComplianceResult,
    compiled: ComplianceResult,
    context: str = "",
) -> None:
    """Assert both results digest identically; report the first diff."""
    left = verdict_digest(interpreted)
    right = verdict_digest(compiled)
    if left == right:
        return
    where = f" [{context}]" if context else ""
    for key in left:
        if left[key] != right[key]:
            raise AssertionError(
                f"compiled replay diverged{where} on {key!r}:\n"
                f"  interpreted: {left[key]!r}\n"
                f"  compiled:    {right[key]!r}"
            )
    raise AssertionError(f"compiled replay diverged{where}: {left} != {right}")
