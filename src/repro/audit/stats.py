"""Statistical triage of audit trails.

Section 6 situates the paper's method among anomaly-detection
techniques.  This module supplies the lightweight statistical companion
a deployment pairs with the exact replay: a :class:`BehaviourModel` fit
on historical (trusted) logs scores new activity by *surprise*
(negative log2 likelihood under smoothed frequency models), giving
auditors a ranking of what to look at first — cheaply, before any
process replay runs, and without requiring a process model at all.

Two granularities:

* **entry surprise** — how unusual is this (role, task, action, object
  root) for this user, backing off to the population profile for users
  with thin history;
* **case surprise** — how unusual is the *shape* of a case: its opening
  task and its length bucket.  The paper's harvesting attack (fresh
  cases opening mid-process with a single entry) lights up on both
  features.

Scores are in bits; `rank_cases` orders cases most-suspicious first.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.audit.model import AuditTrail, LogEntry

#: Feature of one entry: who-context it is scored against.
EntryKey = tuple[str, str, str, str]  # role, task, action, object root


def entry_key(entry: LogEntry) -> EntryKey:
    root = entry.obj.path[0] if entry.obj is not None else "-"
    return (entry.role, entry.task, entry.action, root)


def _length_bucket(length: int) -> str:
    """Coarse case-length buckets (1, 2-3, 4-7, 8-15, 16+)."""
    if length <= 1:
        return "1"
    if length <= 3:
        return "2-3"
    if length <= 7:
        return "4-7"
    if length <= 15:
        return "8-15"
    return "16+"


@dataclass
class _Frequencies:
    counts: Counter = field(default_factory=Counter)
    total: int = 0

    def observe(self, key: object) -> None:
        self.counts[key] += 1
        self.total += 1

    def probability(self, key: object, alpha: float, support: int) -> float:
        """Laplace-smoothed probability; *support* is the category count."""
        return (self.counts[key] + alpha) / (self.total + alpha * max(support, 1))


class BehaviourModel:
    """Frequency profiles of users and case shapes, with surprise scoring."""

    def __init__(self, alpha: float = 1.0):
        if alpha <= 0:
            raise ValueError("the smoothing parameter alpha must be positive")
        self._alpha = alpha
        self._per_user: dict[str, _Frequencies] = {}
        self._population = _Frequencies()
        self._first_tasks = _Frequencies()
        self._lengths = _Frequencies()
        self._keys: set[EntryKey] = set()
        self._fitted = False

    # -- fitting ---------------------------------------------------------
    def fit(self, trail: AuditTrail) -> "BehaviourModel":
        """Learn profiles from a (trusted) historical trail."""
        for entry in trail:
            key = entry_key(entry)
            self._keys.add(key)
            self._population.observe(key)
            self._per_user.setdefault(entry.user, _Frequencies()).observe(key)
        for case_trail in trail.by_case().values():
            self._first_tasks.observe(case_trail[0].task)
            self._lengths.observe(_length_bucket(len(case_trail)))
        self._fitted = True
        return self

    @property
    def fitted(self) -> bool:
        return self._fitted

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise ValueError("fit() the model before scoring")

    # -- scoring -------------------------------------------------------------
    def entry_surprise(self, entry: LogEntry) -> float:
        """Bits of surprise of *entry* under its user's profile.

        Users without history are scored against the population profile;
        thin user histories are blended with it through the smoothing
        mass.
        """
        self._require_fitted()
        key = entry_key(entry)
        support = max(len(self._keys), 1)
        population_p = self._population.probability(key, self._alpha, support)
        user_frequencies = self._per_user.get(entry.user)
        if user_frequencies is None:
            return -math.log2(population_p)
        user_p = user_frequencies.probability(key, self._alpha, support)
        return -math.log2(max(user_p, population_p * 1e-6))

    def case_surprise(self, case_trail: AuditTrail) -> float:
        """Bits of surprise of a case's shape (opening task + length)."""
        self._require_fitted()
        if len(case_trail) == 0:
            return 0.0
        first_support = max(len(self._first_tasks.counts), 1)
        first_p = self._first_tasks.probability(
            case_trail[0].task, self._alpha, first_support
        )
        length_p = self._lengths.probability(
            _length_bucket(len(case_trail)), self._alpha, 5
        )
        return -math.log2(first_p) - math.log2(length_p)

    def rank_cases(
        self, trail: AuditTrail, include_entries: bool = True
    ) -> list[tuple[str, float]]:
        """Cases ordered most-suspicious first.

        The score is the case-shape surprise plus (optionally) the mean
        entry surprise of the case's entries.
        """
        self._require_fitted()
        ranking: list[tuple[str, float]] = []
        for case, case_trail in trail.by_case().items():
            score = self.case_surprise(case_trail)
            if include_entries and len(case_trail):
                mean_entry = sum(
                    self.entry_surprise(e) for e in case_trail
                ) / len(case_trail)
                score += mean_entry
            ranking.append((case, score))
        ranking.sort(key=lambda pair: pair[1], reverse=True)
        return ranking

    def unusual_entries(
        self, trail: AuditTrail | Iterable[LogEntry], threshold_bits: float
    ) -> list[tuple[LogEntry, float]]:
        """Entries whose surprise exceeds *threshold_bits*, scored."""
        self._require_fitted()
        found = []
        for entry in trail:
            surprise = self.entry_surprise(entry)
            if surprise > threshold_bits:
                found.append((entry, surprise))
        found.sort(key=lambda pair: pair[1], reverse=True)
        return found


def triage_precision_at_k(
    ranking: list[tuple[str, float]],
    actually_bad: set[str],
    k: Optional[int] = None,
) -> float:
    """Of the top-*k* ranked cases, the fraction that are truly infringing.

    ``k`` defaults to the number of truly infringing cases (precision at
    the oracle cut)."""
    if not actually_bad:
        return 1.0
    cut = k if k is not None else len(actually_bad)
    top = [case for case, _ in ranking[:cut]]
    return sum(1 for case in top if case in actually_bad) / max(len(top), 1)
