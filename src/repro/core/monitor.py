"""The per-case engine: online purpose-control monitoring.

Section 4: "the analysis of the audit trail may lead the computation to
a state for which further activities are still possible.  In this case
the analysis should be resumed when new actions within the process
instance are recorded."  The :class:`OnlineMonitor` is that resumable
mode as a streaming component: log entries are observed one by one (as a
log shipper would deliver them), each case keeps its incremental
:class:`~repro.core.compliance.ComplianceSession`, and infringements are
raised the moment the offending entry arrives — not at the next batch
audit.

Algorithm 1 is one procedure whether a trail arrives whole or entry by
entry, and cases are independent (Section 7), so the monitor is also the
one case engine every mode drives: it resolves a case's purpose, builds
and caches its checker, replays and meters it, contains its failures,
keeps its findings, requeues it and writes its record.  The batch
auditor, the serve daemon, re-audit and the control plane all
call it (``docs/robustness.md``).

Temporal constraints (:mod:`repro.core.temporal`) integrate through
:meth:`OnlineMonitor.sweep`: invoked periodically with the current time,
it times out open cases that exceeded their duration or inactivity
budget — turning the paper's "maximum duration" remark into an
operational check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import NamedTuple, Optional

from repro.audit.model import LogEntry
from repro.core.compliance import (
    ComplianceChecker,
    ComplianceResult,
    ComplianceSession,
    canonical_digest,
)
from repro.core.resilience import OutcomeKind, classify_failure
from repro.core.temporal import TemporalConstraints, TemporalViolation
from repro.errors import CaseTimeoutError, UnknownPurposeError
from repro.obs import (
    AUTOMATON_CHECKPOINT,
    CASE_FAILED,
    INFRINGEMENT_RAISED,
    MONITOR_SWEEP,
    NULL_TELEMETRY,
    Telemetry,
)
from repro.policy.hierarchy import RoleHierarchy
from repro.policy.registry import ProcessRegistry


class InfringementKind(Enum):
    """Why an audited case raised a flag."""

    #: The case's trail is not a valid execution of the claimed purpose's
    #: process — the re-purposing detection of Section 4.
    INVALID_EXECUTION = "invalid-execution"
    #: An entry's implied access request is denied by the policy (Def. 3).
    UNAUTHORIZED_ACCESS = "unauthorized-access"
    #: The case id does not resolve to any registered purpose.
    UNKNOWN_PURPOSE = "unknown-purpose"
    #: A temporal constraint of the purpose was violated (Section 4's
    #: maximum-duration remark; see :mod:`repro.core.temporal`).
    TEMPORAL_VIOLATION = "temporal-violation"
    #: Algorithm 1 could not decide the case: the purpose's process is
    #: non-well-founded or not finitely observable (Section 5).  Not a
    #: privacy violation — a flag that the case needs manual review.
    UNDECIDABLE = "undecidable"
    #: The case's replay exceeded its wall-clock budget.
    TIMEOUT = "timeout"
    #: An unexpected exception was contained to the case (``--on-error
    #: skip``/``quarantine``).  Like UNDECIDABLE, an audit-quality flag,
    #: not a detected misuse of data.
    AUDIT_ERROR = "audit-error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Infringement:
    """One detected privacy infringement."""

    kind: InfringementKind
    case: str
    detail: str
    entry: Optional[LogEntry] = None

    def __str__(self) -> str:
        return f"[{self.kind}] case {self.case}: {self.detail}"

    def as_dict(self) -> dict:
        """The finding as the wire and the control API carry it."""
        return {"kind": self.kind.value, "detail": self.detail}


#: Infringement kinds that flag an *audit failure* rather than a
#: detected misuse of data (the containment routine's findings).
FAILURE_KINDS = frozenset(
    {
        InfringementKind.UNDECIDABLE,
        InfringementKind.TIMEOUT,
        InfringementKind.AUDIT_ERROR,
    }
)

_FAILURE_FINDINGS = {
    OutcomeKind.UNDECIDABLE: InfringementKind.UNDECIDABLE,
    OutcomeKind.TIMEOUT: InfringementKind.TIMEOUT,
}


def invalid_execution(
    case: str, purpose: str, index: int, entry: LogEntry
) -> Infringement:
    """The finding for a trail rejected at its *index*-th entry."""
    return Infringement(
        InfringementKind.INVALID_EXECUTION,
        case,
        f"trail is not a valid execution of the {purpose!r} process; "
        f"entry {index} ({entry.role}.{entry.task} [{entry.status}]) "
        "cannot be simulated",
        entry,
    )


class CaseState(Enum):
    """The monitor's view of one process instance."""

    OPEN = "open"  # compliant so far, more activity possible
    COMPLETED = "completed"  # compliant and no further activity possible
    INFRINGING = "infringing"  # an entry could not be simulated
    TIMED_OUT = "timed-out"  # a temporal constraint fired
    UNDECIDABLE = "undecidable"  # the case's process defeats Algorithm 1
    FAILED = "failed"  # an unexpected exception was contained to the case

    def __str__(self) -> str:
        return self.value


#: Settled states: every state but OPEN.  A COMPLETED case still replays
#: a later entry (and infringes on it); the others report once and
#: absorb the rest of their trail silently.
TERMINAL_STATES = frozenset(CaseState) - {CaseState.OPEN}

#: The states a contained failure leaves a case in.
_CONTAINED = frozenset({CaseState.UNDECIDABLE, CaseState.FAILED})


@dataclass(slots=True)
class MonitoredCase:
    """Book-keeping for one case under observation."""

    case: str
    purpose: Optional[str]
    session: Optional[ComplianceSession]
    state: CaseState = CaseState.OPEN
    entries: list[LogEntry] = field(default_factory=list)
    failure_kind: Optional[OutcomeKind] = None
    findings: tuple[Infringement, ...] = ()
    #: Processing seconds charged against the case's budget.
    spent_s: float = 0.0


class Observation(NamedTuple):
    """What one :meth:`OnlineMonitor.observe` call did to its case."""

    previous: Optional[CaseState]  # None: the entry opened the case
    state: CaseState
    raised: tuple[Infringement, ...]


class OnlineMonitor:
    """Streaming Algorithm 1 over every case of an organization's logs."""

    def __init__(
        self,
        registry: ProcessRegistry,
        hierarchy: RoleHierarchy | None = None,
        temporal: dict[str, TemporalConstraints] | None = None,
        telemetry: Telemetry | None = None,
        compiled: "bool | None" = None,
        automaton_dir: "str | None" = None,
        checker_wrapper=None,
        max_silent_states: int = 50_000,
        case_timeout_s: "float | None" = None,
    ):
        """``temporal`` maps purpose names to their temporal constraints;
        ``telemetry`` (default: disabled) instruments the monitor and its
        checkers — see :mod:`repro.obs`.

        ``compiled=True`` replays each case over a purpose automaton
        (``docs/compilation.md``), making the per-event cost of a warm
        monitor one dense-table cell read; ``automaton_dir`` warms the
        automata from artifacts there (implies ``compiled``), and
        :meth:`save_automata` writes back what replays grew.
        ``max_silent_states`` bounds one entry's WeakNext exploration
        (Section 5).

        ``case_timeout_s`` is each case's processing budget: every
        entry's replay time is charged to its case, except the entry
        that opens it (one-off warm-up, not the case's fault), and a
        case over budget is contained as TIMEOUT.  A charged entry's
        WeakNext exploration stops when what is left of the budget runs
        out, so no single step can hold the stream for longer.

        ``checker_wrapper`` is the ``(checker, purpose) -> checker``
        middleware seam shared with the batch auditor — the hook
        :mod:`repro.testing.faults` plugs into."""
        self._registry = registry
        self._hierarchy = hierarchy
        self._temporal = dict(temporal or {})
        self.compiled = compiled if compiled is not None else automaton_dir is not None
        self._max_silent_states = max_silent_states
        self._case_timeout_s = case_timeout_s
        self._checker_wrapper = checker_wrapper
        self._checkers: dict[str, ComplianceChecker] = {}
        #: purpose -> (automaton warmed from the cache, its revision when
        #: loaded or last saved).
        self._warmed: dict[str, tuple] = {}
        self._cases: dict[str, MonitoredCase] = {}
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel = tel
        self.automaton_cache = None
        if automaton_dir is not None:
            from repro.compile import AutomatonCache

            self.automaton_cache = AutomatonCache(automaton_dir, telemetry=tel)
        self._m_errors = tel.registry.counter(
            "audit_errors_total", "contained per-case audit failures, by kind"
        )
        # The stream's instruments are registered with the first tracked
        # case (:meth:`_track`): a batch audit drives its cases through
        # this engine without tracking any, and its metrics name none.
        self._m_entries = None
        self._m_cases = None

    def prewarm(self) -> None:
        """Build and warm every registered purpose's checker up front.

        A monitor serving a live stream should pay checker setup —
        encoding, the automaton artifact load — at startup, not on the
        first entry of each purpose mid-stream.
        A purpose whose setup fails is skipped: the same failure
        reproduces at observe time, where per-case containment charges
        it to the case instead of the monitor.
        """
        for purpose in sorted(self._registry.purposes()):
            try:
                self.checker_for(purpose)
            except Exception:
                continue

    # -- the per-case building blocks (batch audit uses these too) --------
    def resolve(self, case: str) -> tuple[Optional[str], Optional[Infringement]]:
        """The purpose *case* claims, or ``None`` and the unknown-purpose
        finding."""
        try:
            return self._registry.purpose_of_case(case), None
        except UnknownPurposeError as error:
            return None, Infringement(
                InfringementKind.UNKNOWN_PURPOSE, case, str(error)
            )

    def checker_for(self, purpose: str) -> ComplianceChecker:
        """The (shared, WeakNext-cached) checker of one purpose's process."""
        checker = self._checkers.get(purpose)
        if checker is None:
            from repro.compile import build_checker

            checker = build_checker(
                self._registry,
                purpose,
                hierarchy=self._hierarchy,
                max_silent_states=self._max_silent_states,
                compiled=self.compiled,
                cache=self.automaton_cache,
                telemetry=self._tel,
            )
            automaton = checker.automaton
            if automaton is not None and self.automaton_cache is not None:
                self._warmed[purpose] = (automaton, automaton.revision)
                self._m_checkpoints = self._tel.registry.counter(
                    "automaton_checkpoints_total",
                    "automaton artifacts written at the end of a batch replay",
                )
            if self._checker_wrapper is not None:
                checker = self._checker_wrapper(checker, purpose)
            self._checkers[purpose] = checker
        return checker

    def failure_finding(
        self, case: str, error: BaseException
    ) -> tuple[OutcomeKind, Infringement]:
        """Contain a failed replay of *case*: classify *error*, word its
        finding, count it and announce it.

        The one containment routine.  The batch auditor files the finding
        on the case's result; :meth:`contain` files it on a tracked case.
        """
        kind = classify_failure(error)
        detail = f"audit did not complete: {error}"
        states = getattr(error, "states_explored", None)
        if states is not None:
            detail += f" (states explored: {states})"
        finding = Infringement(
            _FAILURE_FINDINGS.get(kind, InfringementKind.AUDIT_ERROR),
            case,
            detail,
        )
        self._m_errors.inc(kind=kind.value)
        self._tel.events.emit(
            CASE_FAILED,
            case=case,
            kind=kind.value,
            error=str(error),
            error_type=type(error).__name__,
            retries=0,
        )
        return kind, finding

    # -- internals --------------------------------------------------------
    def _track(
        self, case: str, purpose: Optional[str], state: CaseState
    ) -> MonitoredCase:
        """Start book-keeping for *case* in *state*."""
        if self._m_cases is None:
            registry = self._tel.registry
            self._m_entries = registry.counter(
                "monitor_entries_total", "log entries observed by the monitor"
            ).series()
            self._m_cases = registry.gauge(
                "monitor_cases", "cases under observation, by state"
            )
        monitored = MonitoredCase(case, purpose, None, state)
        self._cases[case] = monitored
        self._m_cases.inc(state=state.value)
        return monitored

    def _transition(self, monitored: MonitoredCase, state: CaseState) -> None:
        """Move a case to *state*, keeping the per-state gauges current."""
        previous = monitored.state
        if previous is not state:
            self._m_cases.dec(state=previous.value)
            monitored.state = state
            self._m_cases.inc(state=state.value)

    def _raise(self, monitored: MonitoredCase, finding: Infringement) -> None:
        monitored.findings += (finding,)
        self._tel.events.emit(
            INFRINGEMENT_RAISED,
            case=monitored.case,
            kind=finding.kind.value,
            detail=finding.detail,
        )

    def _open_case(self, case: str) -> MonitoredCase:
        purpose, unknown = self.resolve(case)
        if unknown is not None:
            monitored = self._track(case, None, CaseState.INFRINGING)
            self._raise(monitored, unknown)
            return monitored
        monitored = self._track(case, purpose, CaseState.OPEN)
        try:
            monitored.session = self.checker_for(purpose).session()
        except Exception as error:
            # e.g. a non-well-founded process in the registry: contain it
            # to this case instead of killing the stream.
            self.contain(case, error)
        return monitored

    def _replay(
        self, monitored: MonitoredCase, entry: LogEntry
    ) -> tuple[Infringement, ...]:
        """Feed *entry* to its case's session; the findings it raised."""
        session = monitored.session
        state = monitored.state
        if state is not CaseState.OPEN and state is not CaseState.COMPLETED:
            # Already reported; don't spam per entry.  INFRINGING and
            # TIMED_OUT sessions still absorb the entry as a rejected
            # step so the replay accounting (and :meth:`case_result`)
            # stays byte-identical to a batch replay of the full trail.
            if session is not None and (
                state is CaseState.INFRINGING or state is CaseState.TIMED_OUT
            ):
                try:
                    session.feed(entry)
                except Exception:  # pragma: no cover - belt and braces
                    pass
            return ()
        try:
            still_ok = session.feed(entry)
        except Exception as error:
            return (self.contain(monitored.case, error),)
        if not still_ok:
            self._transition(monitored, CaseState.INFRINGING)
            finding = invalid_execution(
                monitored.case,
                monitored.purpose,
                len(monitored.entries) - 1,
                entry,
            )
            self._raise(monitored, finding)
            return (finding,)
        self._transition(
            monitored,
            CaseState.OPEN if session.may_continue else CaseState.COMPLETED,
        )
        return ()

    # -- the streaming API -----------------------------------------------
    def observe(self, entry: LogEntry) -> Observation:
        """Feed one log entry; returns the case's previous and new state
        and the infringements the entry raised."""
        case = entry.case
        monitored = self._cases.get(case)
        if monitored is None:
            monitored = self._open_case(case)
        # No entry yet: opened just now, or afresh by a requeue.
        previous = monitored.state if monitored.entries else None
        self._m_entries.inc()
        monitored.entries.append(entry)
        if previous is None and monitored.session is None:
            # unknown purpose, or a failure contained at case open: the
            # finding was just filed — hand it to the caller.
            return Observation(None, monitored.state, monitored.findings)
        budget = self._case_timeout_s
        if budget is None or previous is None:
            raised = self._replay(monitored, entry)
        else:
            started = time.perf_counter()
            checker = self._checkers.get(monitored.purpose)
            engine = getattr(checker, "engine", None)
            if engine is not None:
                engine.deadline = started + budget - monitored.spent_s
            try:
                raised = self._replay(monitored, entry)
            finally:
                if engine is not None:
                    engine.deadline = None
            if monitored.state not in _CONTAINED:
                monitored.spent_s += time.perf_counter() - started
                if monitored.spent_s > budget:
                    # Over budget: take the case out of rotation so it
                    # cannot slow its stream again.
                    error = CaseTimeoutError(
                        f"case {case!r} exceeded its processing budget",
                        budget_s=budget,
                        elapsed_s=monitored.spent_s,
                    )
                    raised += (self.contain(case, error),)
        return Observation(previous, monitored.state, raised)

    def sweep(self, now: datetime) -> list[TemporalViolation]:
        """Time out open cases against their purpose's temporal policy.

        Call periodically (e.g. from a scheduler).  A case flagged here
        transitions to TIMED_OUT and is reported once.
        """
        started = time.perf_counter() if self._tel.enabled else 0.0
        raised: list[TemporalViolation] = []
        checked = 0
        for monitored in self._cases.values():
            if monitored.state is not CaseState.OPEN or monitored.purpose is None:
                continue
            constraints = self._temporal.get(monitored.purpose)
            if constraints is None:
                continue
            from repro.audit.model import AuditTrail

            checked += 1
            violations = constraints.check(
                monitored.case,
                AuditTrail(monitored.entries),
                now=now,
                case_open=True,
            )
            if violations:
                self._transition(monitored, CaseState.TIMED_OUT)
                raised.extend(violations)
        if self._tel.enabled:
            duration = time.perf_counter() - started
            self._tel.registry.histogram(
                "monitor_sweep_seconds", "wall time per temporal sweep"
            ).observe(duration)
            self._tel.events.emit(
                MONITOR_SWEEP,
                checked=checked,
                violations=len(raised),
                cases=len(self._cases),
                duration_s=round(duration, 6),
            )
        return raised

    def contain(self, case: str, error: BaseException) -> Infringement:
        """Contain *error* to *case* (quarantine the case).

        *case* must be tracked.  It transitions to UNDECIDABLE or FAILED
        and keeps the finding :meth:`failure_finding` words; the monitor
        keeps running.  Returns the finding that was filed.
        """
        kind, finding = self.failure_finding(case, error)
        state = (
            CaseState.UNDECIDABLE
            if kind is OutcomeKind.UNDECIDABLE
            else CaseState.FAILED
        )
        monitored = self._cases[case]
        self._transition(monitored, state)
        monitored.failure_kind = kind
        monitored.findings += (finding,)
        return finding

    def requeue(
        self, case: str
    ) -> tuple[Optional[CaseState], int, Optional[OutcomeKind]]:
        """Replay *case* from scratch: the control plane's *requeue*.

        The case's state, findings and budget meter are forgotten, then
        its observed history is re-:meth:`observe`-d through a fresh
        session under a fresh meter — so a transient failure (a crashed
        checker) gets a second, deterministic chance, and a reproducible
        one (a process that defeats Algorithm 1, a case that blows its
        budget again) is contained again.  Returns the case's new state,
        the number of entries replayed and its failure kind; an unknown
        case replays nothing and returns ``(None, 0, None)``.  The case
        keeps its place in first-seen order.
        """
        monitored = self._cases.get(case)
        if monitored is None:
            return None, 0, None
        self._m_cases.dec(state=monitored.state.value)
        # A fresh record in the case's own slot, which the replay's
        # first entry finds empty.
        replayed = self._open_case(case)
        for entry in monitored.entries:
            self.observe(entry)
        return replayed.state, len(monitored.entries), replayed.failure_kind

    def save_automata(self) -> None:
        """Write back each automaton warmed from ``automaton_dir`` that
        grew since it was loaded or last saved: the end of a batch replay
        calls this once, so the next run starts warm
        (``docs/compilation.md``, *Saving*)."""
        for purpose, (automaton, saved) in self._warmed.items():
            if automaton.revision == saved:
                continue
            path = self.automaton_cache.save(automaton)
            self._warmed[purpose] = (automaton, automaton.revision)
            self._m_checkpoints.inc()
            if self._tel.enabled:
                self._tel.events.emit(
                    AUTOMATON_CHECKPOINT,
                    purpose=automaton.purpose,
                    states=automaton.n_states,
                    transitions=automaton.transition_count,
                    path=str(path),
                )

    # -- inspection ---------------------------------------------------------
    def case_state(self, case: str) -> Optional[CaseState]:
        monitored = self._cases.get(case)
        return monitored.state if monitored else None

    def case_purpose(self, case: str) -> Optional[str]:
        monitored = self._cases.get(case)
        return monitored.purpose if monitored else None

    def case_failure_kind(self, case: str) -> Optional[OutcomeKind]:
        """How a contained case failed (None for healthy cases)."""
        monitored = self._cases.get(case)
        return monitored.failure_kind if monitored else None

    def case_findings(self, case: str) -> tuple[Infringement, ...]:
        """The findings *case* raised since it was (re)opened."""
        monitored = self._cases.get(case)
        return monitored.findings if monitored else ()

    def case_result(self, case: str) -> Optional[ComplianceResult]:
        """The case's incremental replay result so far.

        Byte-identical (:func:`repro.core.compliance.verdict_digest`)
        to a batch replay of the same entries; ``None`` for cases with no
        live session (unknown purpose, contained failures).
        """
        monitored = self._cases.get(case)
        if monitored is None or monitored.session is None:
            return None
        return monitored.session.result()

    def case_record(self, case: str, digest: bool = True) -> dict:
        """The case's final word: ``{case, state, purpose, digest,
        failure_kind}``.

        One shape serves the serve daemon's ``results`` reply and drain
        events and the re-audit ledger.  The ``digest`` (the canonical
        JSON of :meth:`case_result`) is the one costly field;
        ``digest=False`` leaves it out.  A case this engine does not
        hold reads as all-``None`` fields.
        """
        monitored = self._cases.get(case)
        record: dict = {
            "case": case,
            "state": monitored.state.value if monitored else None,
            "purpose": monitored.purpose if monitored else None,
        }
        if digest:
            result = self.case_result(case)
            record["digest"] = (
                canonical_digest(result) if result is not None else None
            )
        kind = monitored.failure_kind if monitored else None
        record["failure_kind"] = kind.value if kind is not None else None
        return record

    # The readers below may run on another thread than the one calling
    # observe() (the service's /healthz and control API read a live
    # engine).  Each iterates a one-shot snapshot of the case table:
    # iterating the live dict while observe() inserts a new case raises
    # "dictionary changed size during iteration".  list() over keys or
    # values copies without allocating per item, so no other thread runs
    # mid-copy; over items() it would allocate a tuple per case, and a
    # garbage collection there can hand the interpreter to the writer.
    def cases(self) -> list[str]:
        """Every case under observation, in first-seen order."""
        return list(self._cases)

    def open_cases(self) -> list[str]:
        return [
            m.case
            for m in list(self._cases.values())
            if m.state is CaseState.OPEN
        ]

    def infringing_cases(self) -> list[str]:
        return [
            m.case
            for m in list(self._cases.values())
            if m.state in (CaseState.INFRINGING, CaseState.TIMED_OUT)
        ]

    def failed_cases(self) -> list[str]:
        """Cases whose monitoring was contained (UNDECIDABLE / FAILED)."""
        return [
            m.case for m in list(self._cases.values()) if m.state in _CONTAINED
        ]

    @property
    def infringements(self) -> list[Infringement]:
        """Every case's findings, case by case in first-seen order."""
        return [
            finding
            for monitored in list(self._cases.values())
            for finding in monitored.findings
        ]

    def statistics(self) -> dict[str, int]:
        counts = {state.value: 0 for state in CaseState}
        entries = 0
        for monitored in list(self._cases.values()):
            counts[monitored.state.value] += 1
            entries += len(monitored.entries)
        counts["entries"] = entries
        return counts
