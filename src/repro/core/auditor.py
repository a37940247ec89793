"""The end-to-end purpose-control auditor.

Ties the three framework components together (Section 3): for every case
in an audit trail it resolves the claimed purpose through the process
registry, replays the case's entries with Algorithm 1, and (optionally)
re-evaluates each entry's implied access request against the data
protection policy — the complementary preventive check Section 3.5 calls
for, since Algorithm 1 deliberately allows any action inside an active
task.

Two properties of the paper's Section 7 are visible in the API:

* **object independence** — :meth:`PurposeControlAuditor.audit_object`
  audits the *cases* that touched an object; a case verdict is computed
  once and reused for every object, because Algorithm 1 does not depend
  on the object under investigation;
* **per-case independence** — cases are audited in isolation, so
  ``workers=N`` hands them to a process pool whose workers each run
  this same auditor (:mod:`repro.core.parallel`, benchmark E10).
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional

from repro.audit.model import AuditTrail
from repro.core.compliance import ComplianceResult
from repro.core.monitor import (
    Infringement,
    InfringementKind,
    OnlineMonitor,
    invalid_execution,
)
from repro.core.resilience import (
    OutcomeKind,
    Quarantine,
    QuarantinedEntry,
    RetryPolicy,
    replay_with_deadline,
)
from repro.core.severity import SeverityAssessment, SeverityModel
from repro.core.temporal import TemporalConstraints
from repro.errors import (
    CaseTimeoutError,
    EncodingError,
    NotFinitelyObservableError,
    ProcessValidationError,
)
from repro.obs import (
    CASE_AUDITED,
    INFRINGEMENT_RAISED,
    NULL_TELEMETRY,
    PREFLIGHT_UNSOUND,
    Telemetry,
)
from repro.policy.engine import PolicyDecisionPoint
from repro.policy.hierarchy import RoleHierarchy
from repro.policy.model import ObjectRef
from repro.policy.registry import ProcessRegistry


@dataclass
class CaseAuditResult:
    """The audit outcome for one process instance.

    ``outcome`` classifies how the *replay* ended (the six-way
    :class:`~repro.core.resilience.OutcomeKind`); the ``infringements``
    list carries everything flagged — replay failures, policy denials,
    temporal violations, and (for contained failures) the audit-failure
    finding itself, with the captured exception message on ``error``.
    """

    case: str
    purpose: Optional[str]
    replay: Optional[ComplianceResult]
    infringements: list[Infringement] = field(default_factory=list)
    severity: Optional[SeverityAssessment] = None
    outcome: OutcomeKind = OutcomeKind.COMPLIANT
    error: Optional[str] = None
    error_type: Optional[str] = None
    states_explored: Optional[int] = None
    retries: int = 0

    @property
    def compliant(self) -> bool:
        return not self.infringements

    @property
    def failed(self) -> bool:
        """Whether the audit itself failed on this case (contained)."""
        return self.outcome in (
            OutcomeKind.UNDECIDABLE,
            OutcomeKind.ERROR,
            OutcomeKind.TIMEOUT,
        )

    @property
    def open(self) -> bool:
        """Whether the case may legitimately continue (a valid prefix)."""
        return bool(self.replay and self.replay.compliant and self.replay.may_continue)


@dataclass
class AuditReport:
    """The audit outcome for a whole trail.

    ``quarantined`` lists the raw records the ingestion layer diverted to
    the dead-letter collection (``--on-error quarantine``); they were
    never part of any replayed case.
    """

    cases: dict[str, CaseAuditResult] = field(default_factory=dict)
    quarantined: list[QuarantinedEntry] = field(default_factory=list)

    @property
    def infringements(self) -> list[Infringement]:
        found: list[Infringement] = []
        for result in self.cases.values():
            found.extend(result.infringements)
        return found

    @property
    def compliant(self) -> bool:
        return not self.infringements and not self.quarantined

    @property
    def infringing_cases(self) -> list[str]:
        return [case for case, result in self.cases.items() if not result.compliant]

    @property
    def failed_cases(self) -> list[str]:
        """Cases whose audit was contained (UNDECIDABLE / ERROR / TIMEOUT)."""
        return [case for case, result in self.cases.items() if result.failed]

    def summary(self) -> str:
        lines = [
            f"audited {len(self.cases)} case(s); "
            f"{len(self.infringing_cases)} with infringements"
        ]
        if self.failed_cases:
            lines[0] += f" ({len(self.failed_cases)} not auditable)"
        for case, result in self.cases.items():
            if result.failed:
                status = str(result.outcome).upper()
            else:
                status = "OK" if result.compliant else "INFRINGEMENT"
            severity = (
                f" severity={result.severity.score:.1f}" if result.severity else ""
            )
            retried = f" retries={result.retries}" if result.retries else ""
            lines.append(f"  {case} [{result.purpose}]: {status}{severity}{retried}")
            for infringement in result.infringements:
                lines.append(f"    - {infringement.kind}: {infringement.detail}")
        if self.quarantined:
            lines.append(f"quarantined {len(self.quarantined)} record(s):")
            for record in self.quarantined:
                lines.append(f"  {record}")
        return "\n".join(lines)


#: Failures contained to their case whatever ``on_error`` says: the
#: purpose defeats Algorithm 1, or the case blew its budget.
_ALWAYS_CONTAINED = (
    NotFinitelyObservableError,
    ProcessValidationError,
    EncodingError,
    CaseTimeoutError,
)


class PurposeControlAuditor:
    """Audits trails for compliance with purpose specifications."""

    def __init__(
        self,
        registry: ProcessRegistry,
        hierarchy: RoleHierarchy | None = None,
        pdp: PolicyDecisionPoint | None = None,
        severity_model: SeverityModel | None = None,
        max_silent_states: int = 50_000,
        temporal: "dict[str, TemporalConstraints] | None" = None,
        now: "datetime | None" = None,
        telemetry: Telemetry | None = None,
        on_error: str = "fail",
        case_timeout_s: "float | None" = None,
        checker_wrapper=None,
        compiled: "bool | None" = None,
        automaton_dir: "str | None" = None,
        preflight: bool = False,
        workers: int = 1,
        retry_policy: RetryPolicy | None = None,
    ):
        """``temporal`` maps purpose names to their temporal constraints;
        ``now`` is the audit time used to time out still-open cases
        (defaults to never timing out open cases).  ``telemetry``
        (default: disabled) instruments the whole pipeline below this
        auditor — see :mod:`repro.obs` and ``docs/observability.md``.

        Resilience (``docs/robustness.md``): classified failures — a
        purpose outside the decidable fragment (UNDECIDABLE) or a blown
        ``case_timeout_s`` budget (TIMEOUT) — are *always* contained to
        the offending case.  ``on_error`` governs everything else:
        ``"fail"`` (default) propagates unexpected exceptions,
        ``"skip"``/``"quarantine"`` contain them as ERROR outcomes.
        ``checker_wrapper`` is the ``(checker, purpose) -> checker``
        middleware seam used by :mod:`repro.testing.faults`.

        Static preflight (``docs/analysis.md``): ``preflight=True`` lints
        each purpose's process model (structural + workflow-net
        soundness, :mod:`repro.analysis`) before its first case is
        replayed.  Cases of a purpose with error-severity findings are
        quarantined as UNDECIDABLE — a deadlocking or token-leaking
        model would fail every replay spuriously, so the verdict names
        the model, not the trail.  The lint runs once per purpose and
        is cached for the auditor's lifetime.

        Compiled replay (``docs/compilation.md``): ``compiled=True``
        attaches a purpose automaton to every checker so cases replay
        through memoized transitions; ``automaton_dir`` additionally
        persists automata as artifacts (warm across runs: a serial
        :meth:`audit` writes back what it grew when it ends) and implies
        ``compiled`` unless explicitly disabled.  Invalid artifacts are
        reported and recompiled — they never fail the audit.

        Parallel audit (``docs/robustness.md``): ``workers > 1`` hands
        each case of :meth:`audit` to a process pool whose workers each
        run an auditor built from these same arguments, and assembles
        the report the serial loop would.  ``retry_policy`` (default: 3
        attempts with exponential backoff) re-dispatches cases lost to
        a dead worker; a case out of attempts is audited in this
        process."""
        if on_error not in ("fail", "skip", "quarantine"):
            raise ValueError(f"on_error must be fail/skip/quarantine, got {on_error!r}")
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        # Everything but the telemetry and the pool settings: what a
        # pool worker needs to rebuild this auditor.
        self._options = {
            name: value
            for name, value in locals().items()
            if name not in ("self", "telemetry", "workers", "retry_policy")
        }
        self._workers = workers
        self._retry_policy = retry_policy or RetryPolicy()
        self._registry = registry
        self._hierarchy = hierarchy
        self._pdp = pdp
        self._severity = severity_model
        self._max_silent_states = max_silent_states
        self._temporal = dict(temporal or {})
        self._now = now
        self._on_error = on_error
        self._case_timeout_s = case_timeout_s
        self._preflight = preflight
        self._preflight_cache: dict[str, tuple[str, ...]] = {}
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel = tel
        self._m_cases = tel.registry.counter(
            "cases_audited_total", "process instances audited"
        )
        self._m_infringements = tel.registry.counter(
            "infringements_total", "infringements raised, by kind"
        )
        self._m_case_seconds = tel.registry.histogram(
            "audit_case_seconds", "wall time per audited case"
        )
        #: The case engine: purpose resolution, the checker cache and
        #: its automaton artifacts, and failure containment.  Batch
        #: replays whole trails with ``replay_with_deadline`` and never
        #: tracks a case in it.
        self.engine = OnlineMonitor(
            registry,
            hierarchy=hierarchy,
            telemetry=tel,
            compiled=compiled,
            automaton_dir=automaton_dir,
            checker_wrapper=checker_wrapper,
            max_silent_states=max_silent_states,
        )
        self._m_preflight = tel.registry.counter(
            "preflight_unsound_total",
            "purposes whose processes failed the static preflight",
        )

    # -- auditing ------------------------------------------------------------
    def audit_case(self, case: str, case_trail: AuditTrail) -> CaseAuditResult:
        """Audit one process instance (Algorithm 1 plus the policy check).

        Classified failures (UNDECIDABLE, TIMEOUT) are always contained
        to this case; unexpected exceptions propagate under
        ``on_error="fail"`` and become ERROR results otherwise.
        """
        started = time.perf_counter() if self._tel.enabled else 0.0
        with self._tel.tracer.span("audit_case", case=case):
            try:
                result = self._audit_case(case, case_trail)
            except Exception as error:
                if self._on_error == "fail" and not isinstance(
                    error, _ALWAYS_CONTAINED
                ):
                    raise
                kind, finding = self.engine.failure_finding(case, error)
                result = CaseAuditResult(
                    case=case,
                    purpose=self.engine.resolve(case)[0],
                    replay=None,
                    infringements=[finding],
                    outcome=kind,
                    error=str(error),
                    error_type=type(error).__name__,
                    states_explored=getattr(error, "states_explored", None),
                )
        self._m_cases.inc()
        for infringement in result.infringements:
            self._m_infringements.inc(kind=str(infringement.kind))
            self._tel.events.emit(
                INFRINGEMENT_RAISED,
                case=case,
                kind=str(infringement.kind),
                detail=infringement.detail,
            )
        if self._tel.enabled:
            duration = time.perf_counter() - started
            self._m_case_seconds.observe(duration)
            self._tel.events.emit(
                CASE_AUDITED,
                case=case,
                purpose=result.purpose,
                outcome="compliant" if result.compliant else "infringing",
                entries=len(case_trail),
                infringements=len(result.infringements),
                duration_s=round(duration, 6),
            )
        return result

    def _preflight_codes(self, purpose: str) -> tuple[str, ...]:
        """The error-severity lint codes of *purpose*'s process (cached)."""
        cached = self._preflight_cache.get(purpose)
        if cached is None:
            from repro.analysis import lint_process

            process = self._registry.process_for(purpose)
            with self._tel.tracer.span("preflight", purpose=purpose):
                report = lint_process(process)
            cached = tuple(sorted({d.code for d in report.errors}))
            self._preflight_cache[purpose] = cached
            if cached:
                self._m_preflight.inc()
                self._tel.events.emit(
                    PREFLIGHT_UNSOUND,
                    purpose=purpose,
                    process=process.process_id,
                    codes=list(cached),
                )
        return cached

    def _audit_case(self, case: str, case_trail: AuditTrail) -> CaseAuditResult:
        purpose, unknown = self.engine.resolve(case)
        if unknown is not None:
            return CaseAuditResult(
                case=case,
                purpose=None,
                replay=None,
                infringements=[unknown],
                outcome=OutcomeKind.UNKNOWN_PURPOSE,
            )

        if self._preflight:
            unsound_codes = self._preflight_codes(purpose)
            if unsound_codes:
                detail = (
                    f"purpose {purpose!r} failed the static preflight "
                    f"({', '.join(unsound_codes)}); replay verdicts for "
                    "an unsound model would be spurious — fix the model "
                    "and re-audit (see `repro lint`)"
                )
                return CaseAuditResult(
                    case=case,
                    purpose=purpose,
                    replay=None,
                    infringements=[
                        Infringement(InfringementKind.UNDECIDABLE, case, detail)
                    ],
                    outcome=OutcomeKind.UNDECIDABLE,
                )

        infringements: list[Infringement] = []
        if self._pdp is not None:
            infringements.extend(self._policy_infringements(case, case_trail))

        replay = replay_with_deadline(
            self.engine.checker_for(purpose), case_trail, self._case_timeout_s
        )
        if not replay.compliant:
            infringements.append(
                invalid_execution(
                    case, purpose, replay.failed_index, replay.failed_entry
                )
            )

        constraints = self._temporal.get(purpose)
        if constraints is not None:
            case_open = replay.compliant and replay.may_continue
            for violation in constraints.check(
                case, case_trail, now=self._now, case_open=case_open
            ):
                infringements.append(
                    Infringement(
                        InfringementKind.TEMPORAL_VIOLATION,
                        case,
                        violation.detail,
                        violation.entry,
                    )
                )

        result = CaseAuditResult(
            case=case,
            purpose=purpose,
            replay=replay,
            infringements=infringements,
            outcome=(
                OutcomeKind.COMPLIANT
                if replay.compliant
                else OutcomeKind.INVALID_EXECUTION
            ),
        )
        if self._severity is not None and infringements:
            result.severity = self._severity.assess(result)
        return result

    def audit(
        self, trail: AuditTrail, quarantine: "Quarantine | None" = None
    ) -> AuditReport:
        """Audit every case appearing in *trail*.

        ``quarantine`` (optional) is the dead-letter collection the
        ingestion layer filled while loading *trail*; its records are
        attached to the report so the audit's output accounts for every
        raw record, replayed or not.
        """
        if self._workers > 1 and len(trail.cases()) > 1:
            report = self._audit_in_pool(trail)
        else:
            report = AuditReport()
            try:
                with self._tel.tracer.span("audit", entries=len(trail)):
                    for case in trail.cases():
                        report.cases[case] = self.audit_case(
                            case, trail.for_case(case)
                        )
            finally:
                self.engine.save_automata()
        if quarantine is not None:
            report.quarantined = list(quarantine)
        return report

    def _audit_in_pool(self, trail: AuditTrail) -> AuditReport:
        """Audit *trail* across ``workers`` processes.

        Compiled, every purpose is first compiled into the artifact
        directory (a temporary one without ``automaton_dir``), so each
        worker warms from the artifacts and — inheriting the registry's
        encodings — never re-encodes a BPMN.
        """
        from repro.core.parallel import audit_in_pool

        options = dict(self._options)
        temporary = None
        try:
            if self.engine.compiled:
                from repro.compile import AutomatonCache, precompile

                cache = self.engine.automaton_cache
                if cache is None:
                    temporary = tempfile.TemporaryDirectory(
                        prefix="repro-audit-automata-"
                    )
                    cache = AutomatonCache(temporary.name, telemetry=self._tel)
                    options["automaton_dir"] = temporary.name
                precompile(
                    self._registry,
                    cache,
                    hierarchy=self._hierarchy,
                    max_silent_states=self._max_silent_states,
                    telemetry=self._tel,
                )
            cases = audit_in_pool(
                options, trail, self._workers, self._retry_policy, self._tel
            )
        finally:
            if temporary is not None:
                temporary.cleanup()
        return AuditReport(cases=cases)

    def audit_object(self, trail: AuditTrail, obj: ObjectRef) -> AuditReport:
        """Audit every case in which *obj* (or a descendant) was accessed.

        The replay itself is object-independent: if several objects map
        to the same case, the case is audited once (the checker's caches
        make even repeated calls cheap) — Section 7's first scalability
        argument.
        """
        report = AuditReport()
        for case in trail.cases_touching(obj):
            report.cases[case] = self.audit_case(case, trail.for_case(case))
        return report

    # -- the preventive complement ----------------------------------------
    def _policy_infringements(
        self, case: str, case_trail: AuditTrail
    ) -> list[Infringement]:
        assert self._pdp is not None
        found: list[Infringement] = []
        for entry in case_trail:
            request = entry.as_access_request()
            if request is None:
                continue  # object-less events (e.g. a cancel) need no permit
            decision = self._pdp.evaluate(request)
            if not decision.permit:
                found.append(
                    Infringement(
                        InfringementKind.UNAUTHORIZED_ACCESS,
                        case,
                        f"{entry.user} {entry.action} {entry.obj} in task "
                        f"{entry.task}: {decision.reason}",
                        entry,
                    )
                )
        return found
