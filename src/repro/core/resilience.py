"""Fault containment for the audit pipeline (the degrade-gracefully layer).

The paper's Algorithm 1 assumes every trail replays cleanly, but a
production auditor must survive poisoned inputs: a non-well-founded
process slipped into the registry, a corrupt log entry, a checker that
hangs or crashes its worker.  Runtime purpose-enforcement frameworks
treat the monitor as a component that must keep running in the presence
of bad histories (De Masellis et al.; Kiesel & Grünewald) — this module
brings the same discipline to the a-posteriori audit:

* :class:`OutcomeKind` — the six ways a case can end, carried on
  :attr:`CaseAuditResult.outcome <repro.core.auditor.CaseAuditResult>`:
  every case of a batch audit ends in exactly one of them, and failures
  carry the captured exception message and retry count instead of
  aborting the run;
* :func:`classify_failure` — the single mapping from exception to
  outcome, applied by the case engine's one containment routine
  (:meth:`~repro.core.monitor.OnlineMonitor.failure_finding`) for batch
  audit and the stream alike;
* :class:`RetryPolicy` — bounded attempts with exponential backoff for
  jobs lost to dead workers;
* :func:`replay_with_deadline` — Algorithm 1 under a per-case
  wall-clock budget (cooperative, checked between entries; the
  intra-entry guard remains ``max_silent_states``);
* :class:`Quarantine` — the dead-letter collection for raw records that
  fail :class:`~repro.audit.model.LogEntry` validation at ingestion
  (SQLite rows, XES events), so one corrupt entry costs one entry, not
  the batch.

Semantics are documented in ``docs/robustness.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import (
    CaseTimeoutError,
    EncodingError,
    NotFinitelyObservableError,
    ProcessValidationError,
    UnknownPurposeError,
)
from repro.obs import ENTRY_QUARANTINED, NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.audit.model import LogEntry
    from repro.core.compliance import ComplianceChecker, ComplianceResult


class OutcomeKind(Enum):
    """Every way a batch-audited case can end.

    The first three are the paper's verdicts; the last three are the
    resilience layer's: the audit itself could not decide, not the data
    processing being wrong.
    """

    #: The trail is a valid (prefix of an) execution of the purpose.
    COMPLIANT = "compliant"
    #: The trail is not a valid execution — re-purposing detected.
    INVALID_EXECUTION = "invalid-execution"
    #: The case id resolves to no registered purpose.
    UNKNOWN_PURPOSE = "unknown-purpose"
    #: Algorithm 1 is inapplicable: the process is non-well-founded,
    #: not finitely observable, or its encoding failed (Section 5).
    UNDECIDABLE = "undecidable"
    #: An unexpected exception was contained to this case.
    ERROR = "error"
    #: The per-case wall-clock budget was exhausted.
    TIMEOUT = "timeout"

    def __str__(self) -> str:
        return self.value


def classify_failure(error: BaseException) -> OutcomeKind:
    """Map an exception escaping one case's replay to its outcome kind.

    The case engine's containment routine applies it for every mode, so
    every path files the same failure under the same kind.
    """
    if isinstance(error, NotFinitelyObservableError):
        return OutcomeKind.UNDECIDABLE
    if isinstance(error, (ProcessValidationError, EncodingError)):
        # NotWellFoundedError included: outside the decidable fragment.
        return OutcomeKind.UNDECIDABLE
    if isinstance(error, UnknownPurposeError):
        return OutcomeKind.UNKNOWN_PURPOSE
    if isinstance(error, CaseTimeoutError):
        return OutcomeKind.TIMEOUT
    return OutcomeKind.ERROR


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for jobs lost to dead workers.

    ``max_attempts`` counts every dispatch of a job, the first included,
    so ``max_attempts=3`` means "retry at most twice".  ``delay`` grows
    geometrically and is capped by ``max_backoff_s``.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """Dispatch once, never retry, never sleep."""
        return cls(max_attempts=1, backoff_s=0.0)

    @property
    def max_retries(self) -> int:
        return self.max_attempts - 1

    def allows_retry(self, failures: int) -> bool:
        """Whether a job that failed *failures* times may be re-dispatched."""
        return failures < self.max_attempts

    def delay(self, failures: int) -> float:
        """Seconds to back off after the *failures*-th loss (1-based)."""
        if failures < 1 or self.backoff_s == 0.0:
            return 0.0
        return min(
            self.backoff_s * self.multiplier ** (failures - 1),
            self.max_backoff_s,
        )


def replay_with_deadline(
    checker: "ComplianceChecker",
    entries: "Iterable[LogEntry]",
    timeout_s: Optional[float] = None,
) -> "ComplianceResult":
    """Run Algorithm 1 under a per-case wall-clock budget.

    With ``timeout_s=None`` this is exactly ``checker.check``: every
    entry is fed (the session keeps accounting past the first
    infringement), so verdicts and replay statistics are byte-identical
    to the unbudgeted path.  With a budget, elapsed time is checked
    after every fed entry and :class:`repro.errors.CaseTimeoutError` is
    raised the moment it is exhausted.  The check is cooperative — a
    single entry's WeakNext exploration is bounded by
    ``max_silent_states``, not by the clock.
    """
    if timeout_s is None:
        return checker.check(entries)
    started = time.monotonic()
    deadline = started + timeout_s
    session = checker.session()
    for entry in entries:
        session.feed(entry)
        now = time.monotonic()
        if now > deadline:
            raise CaseTimeoutError(
                f"case {entry.case!r} exceeded its {timeout_s:g}s replay "
                f"budget after {session.entries_fed} entr"
                f"{'y' if session.entries_fed == 1 else 'ies'}",
                budget_s=timeout_s,
                elapsed_s=now - started,
            )
    return session.result()


# ---------------------------------------------------------------------------
# the dead-letter collection

#: The most characters of a record's ``raw`` text and of its ``reason``
#: that a dead letter keeps; the cut is marked.  A quarantine lives as
#: long as the process, so a long hostile record must cost no more than
#: a short one.
MAX_DEAD_LETTER_TEXT = 256


def _clip(text: str) -> str:
    cut = len(text) - MAX_DEAD_LETTER_TEXT
    if cut <= 0:
        return text
    return f"{text[:MAX_DEAD_LETTER_TEXT]}... [{cut} more characters]"


@dataclass(frozen=True)
class QuarantinedEntry:
    """One raw record that failed validation at ingestion.

    ``source`` names the ingestion boundary (``"store"``, ``"xes"``,
    ``"append"``); ``position`` locates the record there (sequence
    number, event index, batch offset); ``raw`` is a best-effort textual
    rendering for forensics, cut after :data:`MAX_DEAD_LETTER_TEXT`
    characters, as ``reason`` is.
    """

    source: str
    position: Optional[int]
    reason: str
    raw: str = ""

    def __str__(self) -> str:
        where = f"#{self.position}" if self.position is not None else "?"
        return f"[{self.source} {where}] {self.reason}"


class Quarantine:
    """Collects records rejected at ingestion instead of failing the batch.

    Pass one to :meth:`repro.audit.store.AuditStore.query` or
    :func:`repro.audit.xes.import_xes` to turn per-record validation
    errors into dead-letter entries.  With telemetry attached, every
    quarantined record counts under ``quarantined_entries_total{source}``
    and emits an ``entry.quarantined`` event.
    """

    def __init__(self, telemetry: Telemetry | None = None):
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._m_quarantined = self._tel.registry.counter(
            "quarantined_entries_total",
            "raw log records quarantined at ingestion, by source",
        )
        self.entries: list[QuarantinedEntry] = []

    def add(
        self,
        source: str,
        reason: str,
        position: Optional[int] = None,
        raw: str = "",
    ) -> QuarantinedEntry:
        reason = _clip(reason)
        entry = QuarantinedEntry(
            source=source, position=position, reason=reason, raw=_clip(raw)
        )
        self.entries.append(entry)
        self._m_quarantined.inc(source=source)
        self._tel.events.emit(
            ENTRY_QUARANTINED,
            source=source,
            position=position,
            reason=reason,
        )
        return entry

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def summary(self) -> str:
        lines = [f"{len(self.entries)} quarantined record(s)"]
        lines.extend(f"  {entry}" for entry in self.entries)
        return "\n".join(lines)
