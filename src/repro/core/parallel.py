"""Fault-isolated parallel case auditing (Section 7: "massive parallelization").

The paper argues its audit scales because "the analysis of process
instances is independent from each other, allowing for massive
parallelization".  This module realizes that claim — and hardens it:
a batch audit always completes with a :class:`CaseOutcome` for every
case, whatever individual cases do to their workers.

Dispatch is **error-isolating**: instead of the old bare ``pool.map``
(where one poisoned case aborted the whole batch), every case is its own
job, results are collected in completion order, and each worker wraps
its replay in exception capture so a failure is filed under the case
that caused it (see :func:`repro.core.resilience.classify_failure`).
Worker **crashes** (a killed or segfaulted process) are detected by the
executor; the jobs the dead worker took down are re-dispatched in a
fresh pool under a configurable :class:`~repro.core.resilience.RetryPolicy`
(bounded attempts, exponential backoff), and cases that repeatedly fail
in workers fall back to serial execution in the parent.  A per-case
wall-clock budget (``case_timeout_s``) rides alongside the existing
``max_silent_states`` guard via
:func:`~repro.core.resilience.replay_with_deadline`.

The functions deliberately exchange only plain data (case ids, entry
lists, and small per-case result dicts) with the workers; the expensive
WeakNext caches live and grow inside each worker.  Checkers are built
**lazily per purpose** inside the worker — so a registry entry whose
encoding fails (e.g. a non-well-founded process) poisons only the cases
of that purpose, never worker startup.  Checker construction forwards
the caller's role hierarchy and silent-state bound, so COMPLIANT /
INVALID_EXECUTION outcomes match the serial
:class:`repro.core.auditor.PurposeControlAuditor` exactly.

With ``telemetry`` enabled, workers count replay outcomes per case and
hand them back with each result; the parent merges them into its own
registry under the same metric names the serial pipeline uses
(``replay_entries_total{outcome=...}``, ``cases_audited_total``,
``infringements_total{kind=...}``) plus the resilience counters
(``audit_errors_total{kind=...}``, ``case_retries_total``) and a
``parallel_workers`` gauge.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Optional

from repro.audit.model import AuditTrail, LogEntry
from repro.bpmn.serialize import process_from_dict, process_to_dict
from repro.core.compliance import ComplianceChecker, ComplianceResult
from repro.core.resilience import (
    CaseOutcome,
    OutcomeKind,
    RetryPolicy,
    replay_with_deadline,
)
from repro.errors import UnknownPurposeError, WorkerLostError
from repro.obs import (
    NULL_TELEMETRY,
    Telemetry,
    TraceContext,
    WORKER_INIT,
    WORKER_LOST,
)
from repro.policy.hierarchy import RoleHierarchy
from repro.policy.registry import ProcessRegistry

#: The legacy tri-state verdict: True = compliant, False = invalid
#: execution, None = anything else (unknown purpose, undecidable,
#: error, timeout).  Kept for callers that only need the paper's view;
#: recover it from an outcome map with :func:`verdicts_from_outcomes`.
CaseVerdict = Optional[bool]

#: A checker middleware: ``(checker, purpose) -> checker-like``.  Applied
#: to every checker a worker (or the serial path) builds — the seam the
#: fault-injection harness (:mod:`repro.testing.faults`) plugs into.
#: Must be picklable to cross the process boundary.
CheckerWrapper = Callable[[ComplianceChecker, str], ComplianceChecker]


class _WorkerState:
    """Everything one audit run needs to replay cases, self-contained.

    Instantiated once per worker process (by :func:`_initialize_worker`)
    and once per *call* on the serial path — never stored in parent-
    process globals, so back-to-back serial audits against different
    registries cannot see each other's checkers.
    """

    def __init__(
        self,
        process_documents: dict[str, dict],
        prefixes: dict[str, str],
        hierarchy_map: Optional[dict[str, list[str]]],
        max_silent_states: int,
        collect_stats: bool,
        case_timeout_s: Optional[float],
        checker_wrapper: Optional[CheckerWrapper],
        automaton_artifacts: Optional[dict[str, bytes]] = None,
    ):
        self.documents = process_documents
        self.automata = automaton_artifacts or {}
        self.prefixes = dict(prefixes)
        self.hierarchy = (
            RoleHierarchy.from_parent_map(hierarchy_map)
            if hierarchy_map is not None
            else None
        )
        self.max_silent_states = max_silent_states
        self.collect = collect_stats
        self.case_timeout_s = case_timeout_s
        self.wrapper = checker_wrapper
        # purpose -> checker, or the exception its construction raised
        # (cached too, so every case of a poisoned purpose fails fast).
        self._checkers: dict[str, ComplianceChecker | Exception] = {}

    def checker_for(self, purpose: str) -> ComplianceChecker:
        """The (lazily built, per-purpose cached) compliance checker.

        Construction failures — e.g. encoding a non-well-founded
        process — are cached and re-raised per case instead of killing
        worker startup.

        When the parent shipped a compiled automaton artifact for the
        purpose, the checker is a
        :class:`~repro.compile.replay.CompiledChecker` facade: the BPMN
        is *not* re-encoded here — the interpreted backend is built
        lazily, only if a case needs a transition the artifact does not
        cover.
        """
        cached = self._checkers.get(purpose)
        if cached is None:
            try:
                checker = self._build_checker(purpose)
                if self.wrapper is not None:
                    checker = self.wrapper(checker, purpose)
            except Exception as error:
                checker = error
            self._checkers[purpose] = checker
            cached = checker
        if isinstance(cached, Exception):
            raise cached
        return cached

    def _build_checker(self, purpose: str):
        artifact = self.automata.get(purpose)
        if artifact is not None:
            try:
                from repro.compile import CompiledChecker, decode_table

                automaton = decode_table(artifact)
                return CompiledChecker(
                    automaton,
                    checker_factory=lambda: self._build_interpreted(purpose),
                )
            except Exception:
                pass  # fall through to the interpreted checker
        return self._build_interpreted(purpose)

    def _build_interpreted(self, purpose: str) -> ComplianceChecker:
        from repro.bpmn.encode import encode

        process = process_from_dict(self.documents[purpose])
        return ComplianceChecker(
            encode(process),
            hierarchy=self.hierarchy,
            max_silent_states=self.max_silent_states,
        )


# The one global a *worker process* holds; the parent never touches it.
_WORKER_STATE: Optional[_WorkerState] = None


def _initialize_worker(*state_args) -> None:
    global _WORKER_STATE
    _WORKER_STATE = _WorkerState(*state_args)


def _audit_case_guarded(
    state: _WorkerState, case: str, entries: list[LogEntry]
) -> dict:
    """Replay one case; never raises — failures become result fields.

    Returns a plain-data dict (picklable) the parent turns into a
    :class:`CaseOutcome`.  ``outcomes`` carries the per-step replay
    outcome counts when telemetry was requested.
    """
    started = time.perf_counter()
    started_unix = time.time()
    purpose: Optional[str] = None
    try:
        prefix = case.partition("-")[0]
        purpose = state.prefixes.get(prefix)
        if purpose is None:
            raise UnknownPurposeError(
                f"case {case!r} references unknown process prefix {prefix!r}"
            )
        checker = state.checker_for(purpose)
        result = replay_with_deadline(checker, entries, state.case_timeout_s)
        return {
            "case": case,
            "kind": (
                OutcomeKind.COMPLIANT
                if result.compliant
                else OutcomeKind.INVALID_EXECUTION
            ).value,
            "purpose": purpose,
            "failed_index": result.failed_index,
            "error": None,
            "error_type": None,
            "states_explored": None,
            "pid": os.getpid(),
            "duration_s": time.perf_counter() - started,
            "started_unix_s": started_unix,
            "outcomes": _step_outcomes(result) if state.collect else None,
        }
    except Exception as error:
        from repro.core.resilience import classify_failure

        return {
            "case": case,
            "kind": classify_failure(error).value,
            "purpose": purpose,
            "failed_index": None,
            "error": str(error),
            "error_type": type(error).__name__,
            "states_explored": getattr(error, "states_explored", None),
            "pid": os.getpid(),
            "duration_s": time.perf_counter() - started,
            "started_unix_s": started_unix,
            "outcomes": {} if state.collect else None,
        }


def _step_outcomes(result: ComplianceResult) -> dict[str, int]:
    outcomes: dict[str, int] = {}
    for step in result.steps:
        outcomes[step.outcome] = outcomes.get(step.outcome, 0) + 1
    return outcomes


def _audit_one(job: tuple[str, list[LogEntry]]) -> dict:
    """The worker entry point: replay one case against the worker state."""
    assert _WORKER_STATE is not None, "worker used before initialization"
    case, entries = job
    return _audit_case_guarded(_WORKER_STATE, case, entries)


def _lost_result(case: str, attempts: int) -> dict:
    """The result recorded for a case abandoned after repeated worker loss."""
    error = WorkerLostError(
        f"worker died while auditing case {case!r} "
        f"({attempts} attempt(s) exhausted)",
        attempts=attempts,
    )
    return {
        "case": case,
        "kind": OutcomeKind.ERROR.value,
        "purpose": None,
        "failed_index": None,
        "error": str(error),
        "error_type": type(error).__name__,
        "states_explored": None,
        "pid": None,
        "duration_s": 0.0,
        "started_unix_s": 0.0,
        "outcomes": None,
    }


def _run_pool(
    jobs: dict[str, list[LogEntry]],
    workers: int,
    state_args: tuple,
    policy: RetryPolicy,
    telemetry: Telemetry,
    serial_fallback: bool,
) -> tuple[dict[str, dict], dict[str, int]]:
    """Dispatch *jobs* across worker processes, surviving worker death.

    Per-job futures are collected in completion order; when the pool
    breaks (a worker was killed), finished results are kept, the lost
    jobs are requeued under *policy*, and a fresh pool takes over.
    Jobs that exhaust their attempts run serially in the parent (when
    ``serial_fallback``) or are recorded as ERROR outcomes.

    Returns ``(raw results by case, re-dispatch counts by case)``.
    """
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    pending = dict(jobs)
    failures = {case: 0 for case in jobs}
    raw: dict[str, dict] = {}
    retries: dict[str, int] = {case: 0 for case in jobs}
    while pending:
        executor = ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            initializer=_initialize_worker,
            initargs=state_args,
        )
        broken = False
        try:
            futures = {
                executor.submit(_audit_one, (case, entries)): case
                for case, entries in pending.items()
            }
            for future in as_completed(futures):
                case = futures[future]
                try:
                    result = future.result()
                except BrokenProcessPool:
                    broken = True
                    continue  # the job stays pending; requeued below
                raw[case] = result
                pending.pop(case, None)
        except BrokenProcessPool:  # pragma: no cover - raised via futures
            broken = True
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        if not pending:
            break
        if not broken:  # pragma: no cover - defensive; should not happen
            for case in list(pending):
                raw[case] = _lost_result(case, failures[case] + 1)
                pending.pop(case)
            break
        # a worker died: every unfinished job counts one failed attempt
        max_failures = 0
        for case in list(pending):
            failures[case] += 1
            retries[case] = failures[case]
            max_failures = max(max_failures, failures[case])
            if not policy.allows_retry(failures[case]):
                entries = pending.pop(case)
                if serial_fallback:
                    state = _WorkerState(*state_args)
                    raw[case] = _audit_case_guarded(state, case, entries)
                else:
                    raw[case] = _lost_result(case, failures[case])
        telemetry.events.emit(
            WORKER_LOST, lost_jobs=len(pending), attempt=max_failures
        )
        if pending:
            delay = policy.delay(max_failures)
            if delay > 0:
                time.sleep(delay)
    return raw, retries


def _merge_stats(
    telemetry: Telemetry,
    results: dict[str, dict],
    outcomes: dict[str, CaseOutcome],
    purposes: list[str],
) -> None:
    """Fold worker-reported counters into the parent's registry, under
    the same metric names the serial pipeline uses."""
    registry = telemetry.registry
    m_entries = registry.counter(
        "replay_entries_total", "log entries replayed, by outcome"
    )
    m_cases = registry.counter("cases_audited_total", "process instances audited")
    m_infringements = registry.counter(
        "infringements_total", "infringements raised, by kind"
    )
    m_errors = registry.counter(
        "audit_errors_total", "contained per-case audit failures, by kind"
    )
    m_retries = registry.counter(
        "case_retries_total", "case re-dispatches after worker loss"
    )
    workers_seen: set[int] = set()
    for case, outcome in outcomes.items():
        m_cases.inc()
        if outcome.kind is OutcomeKind.UNKNOWN_PURPOSE:
            m_infringements.inc(kind="unknown-purpose")
        elif outcome.kind is OutcomeKind.INVALID_EXECUTION:
            m_infringements.inc(kind="invalid-execution")
        elif outcome.kind is not OutcomeKind.COMPLIANT:
            m_errors.inc(kind=outcome.kind.value)
        if outcome.retries:
            m_retries.inc(outcome.retries)
        stats = results[case].get("outcomes")
        pid = results[case].get("pid")
        if stats is None:
            continue
        if pid is not None and pid not in workers_seen:
            workers_seen.add(pid)
            telemetry.events.emit(WORKER_INIT, pid=pid, purposes=purposes)
        for step_outcome, count in stats.items():
            m_entries.inc(count, outcome=step_outcome)
    registry.gauge(
        "parallel_workers", "distinct worker processes that audited cases"
    ).set(len(workers_seen))


def _compile_for_workers(
    registry: ProcessRegistry,
    hierarchy: RoleHierarchy | None,
    max_silent_states: int,
    automaton_dir: Optional[str],
    automaton_max_states: int,
    telemetry: Telemetry,
) -> dict[str, bytes]:
    """Compile (or load) each purpose's automaton once, in the parent.

    The result maps purpose -> RPTB artifact bytes, picklable into
    worker initargs and decoded there by the same validating reader
    that loads artifact files.  Every failure is contained per purpose:
    the BPMN of a non-well-founded process used to fail lazily inside
    workers, and still does — pre-compilation must not turn it into a
    batch-wide startup crash.
    """
    from repro.compile import (
        AutomatonCache,
        compile_automaton,
        encode_table,
        fingerprint_encoded,
    )

    cache = (
        AutomatonCache(automaton_dir, telemetry=telemetry)
        if automaton_dir is not None
        else None
    )
    shipped: dict[str, bytes] = {}
    for purpose in registry.purposes():
        try:
            encoded = registry.encoded_for(purpose)
            fingerprint = fingerprint_encoded(encoded, hierarchy=hierarchy)
            automaton = (
                cache.load(purpose, fingerprint) if cache is not None else None
            )
            if automaton is None:
                checker = ComplianceChecker(
                    encoded,
                    hierarchy=hierarchy,
                    max_silent_states=max_silent_states,
                    telemetry=telemetry,
                )
                automaton = compile_automaton(
                    checker,
                    fingerprint=fingerprint,
                    max_states=automaton_max_states,
                    telemetry=telemetry,
                )
                if cache is not None:
                    cache.save(automaton)
            shipped[purpose] = encode_table(automaton)
        except Exception:
            continue
    return shipped


def verdicts_from_outcomes(
    outcomes: dict[str, CaseOutcome]
) -> dict[str, CaseVerdict]:
    """Project an outcome map onto the legacy tri-state verdicts."""
    return {case: outcome.verdict for case, outcome in outcomes.items()}


def audit_cases_parallel(
    registry: ProcessRegistry,
    trail: AuditTrail,
    workers: int = 2,
    hierarchy: RoleHierarchy | None = None,
    max_silent_states: int = 50_000,
    telemetry: Telemetry | None = None,
    retry_policy: RetryPolicy | None = None,
    case_timeout_s: Optional[float] = None,
    checker_wrapper: Optional[CheckerWrapper] = None,
    serial_fallback: bool = True,
    compiled: bool = False,
    automaton_dir: Optional[str] = None,
    automaton_max_states: int = 50_000,
) -> dict[str, CaseOutcome]:
    """Audit every case of *trail* across *workers* processes.

    Returns the case -> :class:`CaseOutcome` map; the audit **always
    completes with an outcome for every case**.  COMPLIANT /
    INVALID_EXECUTION outcomes are identical to what
    :class:`repro.core.auditor.PurposeControlAuditor` computes serially
    (without the policy check — this is the replay-scaling primitive).
    A case whose prefix matches no registered purpose comes back
    UNKNOWN_PURPOSE; a case whose process falls outside the decidable
    fragment (non-well-founded, not finitely observable) UNDECIDABLE; a
    case that blows its ``case_timeout_s`` budget TIMEOUT; any other
    contained exception ERROR — with the captured message on
    ``outcome.error`` either way.

    ``hierarchy`` and ``max_silent_states`` are forwarded to every
    worker's checkers so role specialization and the silent-state guard
    behave exactly as in the serial path.  ``retry_policy`` (default:
    3 attempts with exponential backoff) governs re-dispatch of jobs
    lost to dead workers; when attempts are exhausted the case falls
    back to serial execution in the parent (``serial_fallback=True``)
    or is recorded as an ERROR outcome.  ``checker_wrapper`` is the
    picklable middleware seam used by :mod:`repro.testing.faults`.

    ``compiled=True`` (or any ``automaton_dir``) pre-compiles each
    purpose's automaton **once in the parent** — loading it from the
    artifact directory when a valid one exists — and ships its artifact
    bytes to every worker, so workers replay warm without
    re-encoding the BPMN or re-exploring WeakNext (see
    ``docs/compilation.md``).  A purpose whose compilation fails keeps
    the lazy per-case containment workers always had.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    policy = retry_policy if retry_policy is not None else RetryPolicy()
    tracer = tel.tracer
    # One trace per batch audit: the root context is pinned up front so
    # per-case spans (synthesized below from the plain wall-clock
    # timings workers hand back) can parent to it — the cross-process
    # half of the distributed tracing story.
    root_ctx = TraceContext.new() if tracer.enabled else None
    audit_started_unix = time.time() if tracer.enabled else 0.0
    jobs = {case: sub.entries for case, sub in trail.by_case().items()}
    documents = {
        purpose: process_to_dict(registry.process_for(purpose))
        for purpose in registry.purposes()
    }
    prefixes = {
        prefix: purpose
        for purpose in registry.purposes()
        for prefix in [registry.case_prefix_of(purpose)]
        if prefix is not None
    }
    hierarchy_map = hierarchy.to_parent_map() if hierarchy is not None else None
    automaton_artifacts = None
    if compiled or automaton_dir is not None:
        automaton_artifacts = _compile_for_workers(
            registry,
            hierarchy,
            max_silent_states,
            automaton_dir,
            automaton_max_states,
            tel,
        )
    state_args = (
        documents,
        prefixes,
        hierarchy_map,
        max_silent_states,
        tel.enabled,
        case_timeout_s,
        checker_wrapper,
        automaton_artifacts,
    )
    if workers <= 1 or len(jobs) <= 1:
        # Serial path: per-call state, so nothing leaks between audits.
        state = _WorkerState(*state_args)
        raw = {
            case: _audit_case_guarded(state, case, entries)
            for case, entries in jobs.items()
        }
        retries = {case: 0 for case in jobs}
    else:
        raw, retries = _run_pool(
            jobs, workers, state_args, policy, tel, serial_fallback
        )
    outcomes = {
        case: CaseOutcome(
            case=case,
            kind=OutcomeKind(result["kind"]),
            purpose=result["purpose"],
            failed_index=result["failed_index"],
            error=result["error"],
            error_type=result["error_type"],
            states_explored=result["states_explored"],
            retries=retries.get(case, 0),
            duration_s=result["duration_s"],
            worker_pid=result["pid"],
        )
        for case, result in raw.items()
    }
    # deterministic ordering: first appearance in the trail
    outcomes = {case: outcomes[case] for case in jobs if case in outcomes}
    if root_ctx is not None:
        for case in outcomes:
            result = raw[case]
            tracer.record_span(
                "audit.case",
                result.get("started_unix_s") or audit_started_unix,
                result["duration_s"],
                parent=root_ctx,
                case=case,
                kind=result["kind"],
                pid=result["pid"],
            )
        tracer.record_span(
            "audit.parallel",
            audit_started_unix,
            time.time() - audit_started_unix,
            context=root_ctx,
            cases=len(outcomes),
            workers=workers,
        )
    if tel.enabled:
        _merge_stats(tel, raw, outcomes, sorted(registry.purposes()))
    return outcomes
