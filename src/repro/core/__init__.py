"""Purpose control — the paper's primary contribution.

* :mod:`repro.core.observables` — the observable label set L (§3.5);
* :mod:`repro.core.configuration` — configurations (Definition 6);
* :mod:`repro.core.weaknext` — the WeakNext function (Definition 7);
* :mod:`repro.core.compliance` — **Algorithm 1**, batch and incremental;
* :mod:`repro.core.auditor` — the end-to-end auditor (policy + replay);
* :mod:`repro.core.naive` — the infeasible trace-enumeration baseline (§1);
* :mod:`repro.core.severity` — infringement severity metrics (§7);
* :mod:`repro.core.resilience` — fault containment: the per-case
  outcome taxonomy, retry policies, per-case budgets, quarantine;
* :mod:`repro.core.parallel` — the process pool behind the auditor's
  ``workers=N`` (§7).
"""

from repro.core.auditor import (
    AuditReport,
    CaseAuditResult,
    Infringement,
    InfringementKind,
    PurposeControlAuditor,
)
from repro.core.compliance import (
    ABSORBED,
    ERROR_TRANSITION,
    REJECTED,
    TASK_TRANSITION,
    ComplianceChecker,
    ComplianceResult,
    ComplianceSession,
    FrontierExplosionError,
    ReplayStep,
)
from repro.core.alignment import Alignment, Move, MoveKind, align
from repro.core.configuration import Configuration
from repro.core.explain import DeviationKind, Explanation, explain
from repro.core.monitor import CaseState, MonitoredCase, OnlineMonitor
from repro.core.naive import NaiveChecker, NaiveResult, Verdict
from repro.core.resilience import (
    OutcomeKind,
    Quarantine,
    QuarantinedEntry,
    RetryPolicy,
    classify_failure,
    replay_with_deadline,
)
from repro.core.temporal import (
    TemporalConstraints,
    TemporalViolation,
    TemporalViolationKind,
)
from repro.core.observables import ErrorEvent, Observables, ObservableEvent, TaskEvent
from repro.core.severity import (
    DEFAULT_SENSITIVITY,
    SeverityAssessment,
    SeverityModel,
)
from repro.core.weaknext import NextState, WeakNextEngine, state_active_tasks

__all__ = [
    "ABSORBED",
    "DEFAULT_SENSITIVITY",
    "ERROR_TRANSITION",
    "REJECTED",
    "TASK_TRANSITION",
    "Alignment",
    "Move",
    "MoveKind",
    "align",
    "AuditReport",
    "CaseAuditResult",
    "CaseState",
    "DeviationKind",
    "Explanation",
    "explain",
    "MonitoredCase",
    "OnlineMonitor",
    "TemporalConstraints",
    "TemporalViolation",
    "TemporalViolationKind",
    "classify_failure",
    "replay_with_deadline",
    "OutcomeKind",
    "Quarantine",
    "QuarantinedEntry",
    "RetryPolicy",
    "ComplianceChecker",
    "ComplianceResult",
    "ComplianceSession",
    "Configuration",
    "ErrorEvent",
    "FrontierExplosionError",
    "Infringement",
    "InfringementKind",
    "NaiveChecker",
    "NaiveResult",
    "NextState",
    "Observables",
    "ObservableEvent",
    "PurposeControlAuditor",
    "ReplayStep",
    "SeverityAssessment",
    "SeverityModel",
    "TaskEvent",
    "Verdict",
    "WeakNextEngine",
    "state_active_tasks",
]
