"""Online purpose-control monitoring.

Section 4: "the analysis of the audit trail may lead the computation to
a state for which further activities are still possible.  In this case
the analysis should be resumed when new actions within the process
instance are recorded."  The :class:`OnlineMonitor` is that resumable
mode as a streaming component: log entries are observed one by one (as a
log shipper would deliver them), each case keeps its incremental
:class:`~repro.core.compliance.ComplianceSession`, and infringements are
raised the moment the offending entry arrives — not at the next batch
audit.

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
from typing import Optional

from repro.audit.model import LogEntry
from repro.core.auditor import Infringement, InfringementKind
from repro.core.compliance import (
    ComplianceChecker,
    ComplianceResult,
    ComplianceSession,
)
from repro.core.resilience import OutcomeKind, classify_failure
from repro.core.temporal import TemporalConstraints, TemporalViolation
from repro.errors import UnknownPurposeError
from repro.obs import (
    CASE_FAILED,
    INFRINGEMENT_RAISED,
    MONITOR_SWEEP,
    NULL_TELEMETRY,
    Telemetry,
)
from repro.policy.hierarchy import RoleHierarchy
from repro.policy.registry import ProcessRegistry


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


#: States in which further entries are short-circuited (reported once).
_TERMINAL_STATES = frozenset(
    {
        CaseState.INFRINGING,
        CaseState.TIMED_OUT,
        CaseState.UNDECIDABLE,
        CaseState.FAILED,
    }
)


@dataclass
class MonitoredCase:
    """Book-keeping for one case under observation."""

    case: str
    purpose: Optional[str]
    session: Optional[ComplianceSession]
    state: CaseState = CaseState.OPEN
    entries: list[LogEntry] = field(default_factory=list)
    first_seen: Optional[datetime] = None
    last_seen: Optional[datetime] = None
    failure_kind: Optional[OutcomeKind] = None

    @property
    def entry_count(self) -> int:
        return len(self.entries)


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
        automaton_max_states: int = 50_000,
        checker_wrapper=None,
    ):
        """``temporal`` maps purpose names to their temporal constraints;
        ``telemetry`` (default: disabled) instruments the monitor and its
        checkers — see :mod:`repro.obs`.

        ``compiled=True`` replays each case over a purpose automaton
        (``docs/compilation.md``), making the per-event cost of a warm
        monitor one dense-table cell read; ``automaton_dir`` persists
        the automata (implies ``compiled``) and :meth:`sweep` doubles as
        the checkpoint tick.

        ``checker_wrapper`` is the ``(checker, purpose) -> checker``
        middleware seam shared with the batch auditor — the hook
        :mod:`repro.testing.faults` plugs into."""
        self._registry = registry
        self._hierarchy = hierarchy
        self._temporal = dict(temporal or {})
        self._compiled = compiled if compiled is not None else automaton_dir is not None
        self._automaton_max_states = automaton_max_states
        self._checker_wrapper = checker_wrapper
        self._checkpoints: list = []
        self._checkers: dict[str, ComplianceChecker] = {}
        self._cases: dict[str, MonitoredCase] = {}
        self._infringements: list[Infringement] = []
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel = tel
        self._automaton_cache = None
        if automaton_dir is not None:
            from repro.compile import AutomatonCache

            self._automaton_cache = AutomatonCache(automaton_dir, telemetry=tel)
        self._m_entries = tel.registry.counter(
            "monitor_entries_total", "log entries observed by the monitor"
        ).series()
        self._m_cases = tel.registry.gauge(
            "monitor_cases", "cases under observation, by state"
        )
        self._m_sweep_seconds = tel.registry.histogram(
            "monitor_sweep_seconds", "wall time per temporal sweep"
        )
        self._m_errors = tel.registry.counter(
            "audit_errors_total", "contained per-case audit failures, by kind"
        )

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
                self._checker_for(purpose)
            except Exception:
                continue

    # -- internals --------------------------------------------------------
    def _checker_for(self, purpose: str) -> ComplianceChecker:
        checker = self._checkers.get(purpose)
        if checker is None:
            checker = ComplianceChecker(
                self._registry.encoded_for(purpose),
                hierarchy=self._hierarchy,
                telemetry=self._tel,
            )
            if self._compiled:
                from repro.compile import CheckpointWriter, warm_checker

                automaton = warm_checker(
                    checker,
                    cache=self._automaton_cache,
                    max_states=self._automaton_max_states,
                    telemetry=self._tel,
                )
                if self._automaton_cache is not None:
                    self._checkpoints.append(
                        CheckpointWriter(
                            automaton,
                            self._automaton_cache.path_for(
                                automaton.purpose, automaton.fingerprint
                            ),
                            telemetry=self._tel,
                        )
                    )
            if self._checker_wrapper is not None:
                checker = self._checker_wrapper(checker, purpose)
            self._checkers[purpose] = checker
        return checker

    def _transition(self, monitored: MonitoredCase, state: CaseState) -> None:
        """Move a case to *state*, keeping the per-state gauges current."""
        if monitored.state is not state:
            self._m_cases.dec(state=monitored.state.value)
            monitored.state = state
            self._m_cases.inc(state=state.value)

    def _contain_failure(
        self, case: str, purpose: Optional[str], error: BaseException
    ) -> tuple[MonitoredCase, Infringement]:
        """File a contained per-case failure; the monitor keeps running."""
        kind = classify_failure(error)
        state = (
            CaseState.UNDECIDABLE
            if kind is OutcomeKind.UNDECIDABLE
            else CaseState.FAILED
        )
        finding_kind = {
            OutcomeKind.UNDECIDABLE: InfringementKind.UNDECIDABLE,
            OutcomeKind.TIMEOUT: InfringementKind.TIMEOUT,
        }.get(kind, InfringementKind.AUDIT_ERROR)
        monitored = self._cases.get(case)
        if monitored is None:
            monitored = MonitoredCase(case, purpose, None, state)
            self._cases[case] = monitored
            self._m_cases.inc(state=state.value)
        else:
            self._transition(monitored, state)
        monitored.failure_kind = kind
        detail = f"monitoring did not complete: {error}"
        states = getattr(error, "states_explored", None)
        if states is not None:
            detail += f" (states explored: {states})"
        infringement = Infringement(finding_kind, case, detail)
        self._infringements.append(infringement)
        self._m_errors.inc(kind=kind.value)
        self._tel.events.emit(
            CASE_FAILED,
            case=case,
            kind=kind.value,
            error=str(error),
            error_type=type(error).__name__,
            retries=0,
        )
        return monitored, infringement

    def _open_case(self, case: str) -> MonitoredCase:
        try:
            purpose = self._registry.purpose_of_case(case)
        except UnknownPurposeError as error:
            monitored = MonitoredCase(case, None, None, CaseState.INFRINGING)
            self._cases[case] = monitored
            self._m_cases.inc(state=CaseState.INFRINGING.value)
            self._infringements.append(
                Infringement(InfringementKind.UNKNOWN_PURPOSE, case, str(error))
            )
            self._tel.events.emit(
                INFRINGEMENT_RAISED,
                case=case,
                kind=InfringementKind.UNKNOWN_PURPOSE.value,
                detail=str(error),
            )
            return monitored
        try:
            session = self._checker_for(purpose).session()
        except Exception as error:
            # e.g. a non-well-founded process in the registry: contain it
            # to this case instead of killing the stream.
            monitored, _ = self._contain_failure(case, purpose, error)
            return monitored
        monitored = MonitoredCase(case, purpose, session)
        self._cases[case] = monitored
        self._m_cases.inc(state=CaseState.OPEN.value)
        return monitored

    # -- the streaming API -----------------------------------------------
    def observe(self, entry: LogEntry) -> list[Infringement]:
        """Feed one log entry; returns the infringements it triggered."""
        self._m_entries.inc()
        monitored = self._cases.get(entry.case)
        raised: list[Infringement] = []
        if monitored is None:
            monitored = self._open_case(entry.case)
            if monitored.purpose is None or monitored.session is None:
                # unknown purpose, or a failure contained at case open:
                # the finding was just recorded — hand it to the caller.
                monitored.entries.append(entry)
                return [self._infringements[-1]]
        monitored.entries.append(entry)
        monitored.first_seen = monitored.first_seen or entry.timestamp
        monitored.last_seen = entry.timestamp

        if monitored.state in _TERMINAL_STATES:
            # Already reported; don't spam per entry.  INFRINGING and
            # TIMED_OUT sessions still absorb the entry as a rejected
            # step so the replay accounting (and :meth:`case_result`)
            # stays byte-identical to a batch replay of the full trail.
            if monitored.session is not None and monitored.state in (
                CaseState.INFRINGING,
                CaseState.TIMED_OUT,
            ):
                try:
                    monitored.session.feed(entry)
                except Exception:  # pragma: no cover - belt and braces
                    pass
            return []
        assert monitored.session is not None
        try:
            still_ok = monitored.session.feed(entry)
        except Exception as error:
            _, infringement = self._contain_failure(
                entry.case, monitored.purpose, error
            )
            return [infringement]
        if not still_ok:
            self._transition(monitored, CaseState.INFRINGING)
            infringement = Infringement(
                InfringementKind.INVALID_EXECUTION,
                entry.case,
                f"entry for task {entry.task} by {entry.user} "
                f"({entry.role}) is not part of a valid "
                f"{monitored.purpose!r} execution",
                entry,
            )
            self._infringements.append(infringement)
            raised.append(infringement)
            self._tel.events.emit(
                INFRINGEMENT_RAISED,
                case=entry.case,
                kind=InfringementKind.INVALID_EXECUTION.value,
                detail=infringement.detail,
            )
        elif not monitored.session.may_continue:
            self._transition(monitored, CaseState.COMPLETED)
        else:
            self._transition(monitored, CaseState.OPEN)
        return raised

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
        self.checkpoint()
        if self._tel.enabled:
            duration = time.perf_counter() - started
            self._m_sweep_seconds.observe(duration)
            self._tel.events.emit(
                MONITOR_SWEEP,
                checked=checked,
                violations=len(raised),
                cases=len(self._cases),
                duration_s=round(duration, 6),
            )
        return raised

    def contain(self, case: str, error: BaseException) -> Infringement:
        """Publicly contain *error* to *case* (quarantine the case).

        The streaming audit service uses this to take a stuck or
        misbehaving case out of rotation — e.g. one that blew its
        per-entry wall-clock budget — without touching the rest of the
        stream.  The case transitions to a terminal state, the failure
        is classified exactly like an in-replay exception
        (:func:`~repro.core.resilience.classify_failure`), and the
        returned infringement is the finding that was filed.
        """
        _, infringement = self._contain_failure(
            case, self.case_purpose(case), error
        )
        return infringement

    def reset_case(self, case: str) -> list[LogEntry]:
        """Forget a case entirely, returning its observed entry history.

        The control plane's quarantine *requeue* is built on this: pop
        the case's state (keeping the per-state gauge honest), then
        re-:meth:`observe` the returned entries through a fresh session —
        a from-scratch replay of exactly what was seen, so a transient
        failure (a crashed checker, a blown budget) gets a second,
        deterministic chance.  Unknown cases return an empty history.
        """
        monitored = self._cases.pop(case, None)
        if monitored is None:
            return []
        self._m_cases.dec(state=monitored.state.value)
        return list(monitored.entries)

    def checkpoint(self, force: bool = False) -> None:
        """Persist newly materialized automaton states (no-op without an
        ``automaton_dir``).  :meth:`sweep` calls this on every tick; a
        draining service calls it once more with ``force=True``."""
        for writer in self._checkpoints:
            writer.maybe_save(force=force)

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

    def case_result(self, case: str) -> Optional[ComplianceResult]:
        """The case's incremental replay result so far.

        Byte-identical (:func:`repro.testing.differential.verdict_digest`)
        to a batch replay of the same entries; ``None`` for cases with no
        live session (unknown purpose, contained failures).
        """
        monitored = self._cases.get(case)
        if monitored is None or monitored.session is None:
            return None
        return monitored.session.result()

    # The readers below may run on another thread than the one calling
    # observe() (the service's /healthz and control API read a live
    # shard).  Each iterates a one-shot snapshot of the case table:
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
            m.case
            for m in list(self._cases.values())
            if m.state in (CaseState.UNDECIDABLE, CaseState.FAILED)
        ]

    @property
    def infringements(self) -> list[Infringement]:
        return list(self._infringements)

    def statistics(self) -> dict[str, int]:
        counts = {state.value: 0 for state in CaseState}
        entries = 0
        for monitored in list(self._cases.values()):
            counts[monitored.state.value] += 1
            entries += monitored.entry_count
        counts["entries"] = entries
        return counts
