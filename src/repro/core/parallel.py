"""The process pool behind ``PurposeControlAuditor(workers=N)``.

The paper argues its audit scales because "the analysis of process
instances is independent from each other, allowing for massive
parallelization" (Section 7).  :func:`audit_in_pool` realizes that
claim without a second case engine: every case is one job, and every
worker process holds one :class:`~repro.core.auditor.PurposeControlAuditor`
built from the parent's constructor arguments (telemetry off), so a
worker returns exactly the ``CaseAuditResult`` the serial loop computes.

Dispatch is **error-isolating**: results are collected in completion
order.  Worker **crashes** (a killed or segfaulted process) are detected
by the executor; the jobs the dead worker took down are re-dispatched in
a fresh pool under a :class:`~repro.core.resilience.RetryPolicy`
(bounded attempts, exponential backoff), and a case that exhausts its
attempts is audited serially in the parent.  Every other failure follows
the auditor's ``on_error``: the worker's auditor contains it as an
AUDIT_ERROR finding, or — under ``"fail"`` — raises it, and the parent
re-raises the first such exception a worker hands back.

With telemetry enabled, the parent derives the serial pipeline's
counters from the results (``cases_audited_total``,
``infringements_total{kind}``, ``audit_errors_total{kind}``,
``replay_entries_total{outcome}``) plus ``case_retries_total`` and a
``parallel_workers`` gauge, and records one ``audit.case`` span per case
under an ``audit.parallel`` root from the timings workers hand back.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.audit.model import AuditTrail, LogEntry
from repro.core.auditor import CaseAuditResult, PurposeControlAuditor
from repro.core.resilience import RetryPolicy
from repro.obs import Telemetry, TraceContext, WORKER_INIT, WORKER_LOST

#: A job's answer: the case's result, the pid that audited it, and the
#: audit's wall-clock start (Unix seconds) and duration.
Timed = tuple[CaseAuditResult, int, float, float]

# The one global a *worker process* holds; the parent never sets it.
_WORKER_AUDITOR: Optional[PurposeControlAuditor] = None


def _initialize_worker(options: dict) -> None:
    global _WORKER_AUDITOR
    _WORKER_AUDITOR = PurposeControlAuditor(**options)


def _audit_timed(
    auditor: PurposeControlAuditor, case: str, entries: list[LogEntry]
) -> Timed:
    started_unix = time.time()
    started = time.perf_counter()
    result = auditor.audit_case(case, AuditTrail(entries))
    return result, os.getpid(), started_unix, time.perf_counter() - started


def _audit_one(job: tuple[str, list[LogEntry]]) -> Timed:
    """The worker entry point: audit one case with the worker's auditor."""
    assert _WORKER_AUDITOR is not None, "worker used before initialization"
    return _audit_timed(_WORKER_AUDITOR, *job)


def _run_pool(
    jobs: dict[str, list[LogEntry]],
    workers: int,
    options: dict,
    policy: RetryPolicy,
    telemetry: Telemetry,
) -> tuple[dict[str, Timed], dict[str, int]]:
    """Dispatch *jobs* across worker processes, surviving worker death.

    Per-job futures are collected in completion order; when the pool
    breaks (a worker was killed), finished results are kept, the lost
    jobs are requeued under *policy*, and a fresh pool takes over.
    Jobs that exhaust their attempts are audited in the parent by an
    auditor built from the same *options*.

    Returns ``(results by case, re-dispatch counts of retried cases)``.
    """
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    pending = dict(jobs)
    failures = {case: 0 for case in jobs}
    timed: dict[str, Timed] = {}
    fallback: Optional[PurposeControlAuditor] = None
    while pending:
        executor = ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            initializer=_initialize_worker,
            initargs=(options,),
        )
        try:
            futures = {
                executor.submit(_audit_one, (case, entries)): case
                for case, entries in pending.items()
            }
            for future in as_completed(futures):
                case = futures[future]
                try:
                    timed[case] = future.result()
                except BrokenProcessPool:
                    continue  # the job stays pending; requeued below
                pending.pop(case)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        if not pending:
            break
        # a worker died: every unfinished job counts one failed attempt
        max_failures = 0
        for case in list(pending):
            failures[case] += 1
            max_failures = max(max_failures, failures[case])
            if not policy.allows_retry(failures[case]):
                if fallback is None:
                    fallback = PurposeControlAuditor(**options)
                timed[case] = _audit_timed(fallback, case, pending.pop(case))
        telemetry.events.emit(
            WORKER_LOST, lost_jobs=len(pending), attempt=max_failures
        )
        if pending:
            delay = policy.delay(max_failures)
            if delay > 0:
                time.sleep(delay)
    return timed, {case: count for case, count in failures.items() if count}


def _merge_stats(
    telemetry: Telemetry, timed: dict[str, Timed], purposes: list[str]
) -> None:
    """Count the results into the parent's registry, under the metric
    names the serial pipeline uses."""
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
    for result, pid, _, _ in timed.values():
        m_cases.inc()
        for infringement in result.infringements:
            m_infringements.inc(kind=str(infringement.kind))
        if result.error is not None:
            m_errors.inc(kind=result.outcome.value)
        if result.retries:
            m_retries.inc(result.retries)
        if result.replay is not None:
            for step in result.replay.steps:
                m_entries.inc(outcome=step.outcome)
        if pid not in workers_seen:
            workers_seen.add(pid)
            telemetry.events.emit(WORKER_INIT, pid=pid, purposes=purposes)
    registry.gauge(
        "parallel_workers", "distinct worker processes that audited cases"
    ).set(len(workers_seen))


def audit_in_pool(
    options: dict,
    trail: AuditTrail,
    workers: int,
    policy: RetryPolicy,
    telemetry: Telemetry,
) -> dict[str, CaseAuditResult]:
    """Audit every case of *trail* across *workers* processes, each
    running ``PurposeControlAuditor(**options)``.

    Returns the results in trail order; a case re-dispatched after
    worker loss carries its count on ``retries``.
    """
    tracer = telemetry.tracer
    # One trace per batch audit: the root context is pinned up front so
    # the per-case spans, recorded from the plain timings workers hand
    # back, can parent to it.
    root_ctx = TraceContext.new() if tracer.enabled else None
    audit_started_unix = time.time()
    jobs = {case: sub.entries for case, sub in trail.by_case().items()}
    timed, retries = _run_pool(jobs, workers, options, policy, telemetry)
    timed = {case: timed[case] for case in jobs}
    for case, count in retries.items():
        timed[case][0].retries = count
    if root_ctx is not None:
        for case, (result, pid, started_unix, duration) in timed.items():
            tracer.record_span(
                "audit.case",
                started_unix,
                duration,
                parent=root_ctx,
                case=case,
                kind=result.outcome.value,
                pid=pid,
            )
        tracer.record_span(
            "audit.parallel",
            audit_started_unix,
            time.time() - audit_started_unix,
            context=root_ctx,
            cases=len(timed),
            workers=workers,
        )
    if telemetry.enabled:
        _merge_stats(telemetry, timed, sorted(options["registry"].purposes()))
    return {case: result for case, (result, *_) in timed.items()}
