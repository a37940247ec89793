"""Compiled replay: Algorithm 1 as integer-state transitions.

:class:`CompiledSession` is a drop-in for
:class:`~repro.core.compliance.ComplianceSession`: same ``feed`` /
``result`` / ``steps`` surface, same telemetry, same
``FrontierExplosionError`` contract — but a warm entry costs integer
indexing instead of a frontier scan over COWS configurations.  Replay
descends a two-rung ladder, cheapest first:

1. **dense table** — the entry's ``(task, role)`` pair resolves to a
   column through the automaton's hash-once symbol interner, then one
   cell read and one pool index; an UNKNOWN cell runs one WeakNext step
   that writes the cell in place (:meth:`PurposeAutomaton.extend`);
2. **interpreted** — a full :class:`ComplianceSession`, entered only
   when the automaton cannot derive the step at all.

Every step the table records is bit-identical to the interpreted one
(cells memoize the interpreted step function, see
:mod:`repro.compile.automaton`), which the differential suites in
``tests/properties`` and ``tests/serve`` enforce; the interpreted
engine stays the oracle.

When the automaton cannot derive a step — the ``max_states`` guard
tripping — the session falls back transparently: it builds an interpreted session, re-feeds
the entries seen so far (deterministic, so the replayed prefix is
identical), and delegates from then on.  The fallback is counted
(``automaton_fallbacks_total``) and re-counts the prefix's
``replay_entries_total`` increments — visible, rare, and preferable to
losing the case.

:meth:`ComplianceChecker.session
<repro.core.compliance.ComplianceChecker.session>` returns one once an
automaton is attached to the checker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.audit.model import LogEntry
from repro.compile.automaton import ERR_KEY, REJECTED_STATE, PurposeAutomaton
from repro.core.compliance import (
    REJECTED,
    ComplianceResult,
    ComplianceSession,
    FrontierExplosionError,
    ReplayStep,
)
from repro.core.configuration import Configuration
from repro.errors import AutomatonExplosionError
from repro.obs import ENTRY_REPLAYED, FRONTIER_GROWN, NULL_TELEMETRY, Telemetry
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS


@dataclass
class CompiledResult(ComplianceResult):
    """A :class:`ComplianceResult` whose frontier-derived properties come
    from the automaton's per-state classification instead of live
    configurations (compiled replay does not materialize COWS terms, so
    ``final_configurations`` stays empty and ``configurations_created``
    is 0)."""

    state_may_continue: bool = False
    state_active_sets: frozenset[frozenset[tuple[str, str]]] = frozenset()

    @property
    def may_continue(self) -> bool:
        return self.compliant and self.state_may_continue

    def active_task_sets(self) -> frozenset[frozenset[tuple[str, str]]]:
        return self.state_active_sets if self.compliant else frozenset()


class CompiledSession:
    """Incremental replay over a purpose automaton (with fallback)."""

    def __init__(
        self,
        automaton: PurposeAutomaton,
        fallback: Callable[[], ComplianceSession],
        max_frontier: int = 10_000,
        telemetry: Telemetry | None = None,
    ):
        self._automaton = automaton
        self._sid = automaton.initial()
        self._table_hits = 0
        self._max_frontier = max_frontier
        self._fallback = fallback
        self._delegate: Optional[ComplianceSession] = None
        self._steps: list[ReplayStep] = []
        self._failed: Optional[tuple[int, LogEntry]] = None
        self._count = 0
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel = tel
        self._m_entries = tel.registry.counter(
            "replay_entries_total", "log entries replayed, by outcome"
        )
        #: outcome -> pre-bound counter series (hot-path label binding).
        self._entry_series: dict = {}
        self._m_frontier = tel.registry.histogram(
            "replay_frontier_size",
            "configuration frontier size after each replay step",
            buckets=DEFAULT_SIZE_BUCKETS,
        ).series()
        self._m_seconds = tel.registry.histogram(
            "replay_seconds", "wall time per replayed log entry"
        ).series()
        self._m_fallbacks = tel.registry.counter(
            "automaton_fallbacks_total",
            "cases that fell back from compiled to interpreted replay",
        )
        self._m_table_hits = tel.registry.counter(
            "automaton_table_hits_total",
            "replay steps served by a dense-table cell without a "
            "derivation (flushed in batches at verdict/fallback time)",
        )
        # NullEventLogger.emit is a no-op; skipping the call (and its
        # kwargs build) per entry is behavior-preserving.
        self._events_on = tel.enabled and tel.events.enabled

    # -- state -----------------------------------------------------------
    @property
    def compliant(self) -> bool:
        if self._delegate is not None:
            return self._delegate.compliant
        return self._failed is None

    @property
    def steps(self) -> list[ReplayStep]:
        if self._delegate is not None:
            return self._delegate.steps
        return list(self._steps)

    @property
    def entries_fed(self) -> int:
        if self._delegate is not None:
            return self._delegate.entries_fed
        return self._count

    @property
    def may_continue(self) -> bool:
        """Whether further activities are still possible from here."""
        if self._delegate is not None:
            return self._delegate.may_continue
        if self._failed is not None:
            return False
        return self._automaton.state_may_continue(self._sid)

    @property
    def frontier(self) -> tuple[Configuration, ...]:
        """The live configurations (may require the automaton's engine)."""
        if self._delegate is not None:
            return self._delegate.frontier
        if self._failed is not None:
            return ()
        return self._automaton.materialize(self._sid)

    # -- the compiled algorithm -----------------------------------------
    def feed(self, entry: LogEntry) -> bool:
        """Replay one entry; returns whether the trail is still compliant."""
        if self._delegate is not None:
            return self._delegate.feed(entry)
        index = self._count
        self._count += 1
        if self._failed is not None:
            self._steps.append(ReplayStep(index, entry, REJECTED, 0))
            self._outcome_series(REJECTED).inc()
            return False
        started = time.perf_counter() if self._tel.enabled else 0.0
        automaton = self._automaton
        previous_size = automaton.state_size(self._sid)

        # One tuple-keyed probe for the column, then one cell read and
        # one pool index — no entry key string is built per entry.
        sym = (
            automaton.intern(ERR_KEY)
            if entry.failed
            else automaton.entry_symbol(entry.task, entry.role)
        )
        pooled = automaton.cells[self._sid * automaton.n_symbols + sym]
        if pooled >= 0:
            transition = automaton.pool[pooled]
            self._table_hits += 1
        else:
            try:
                transition = automaton.extend(
                    self._sid, automaton.symbols[sym]
                )
            except AutomatonExplosionError:
                return self._fall_back(entry)

        if transition.target == REJECTED_STATE:
            self._failed = (index, entry)
            self._steps.append(ReplayStep(index, entry, REJECTED, 0))
            self._record_step(index, entry, REJECTED, 0, previous_size, started)
            return False
        if transition.size > self._max_frontier:
            raise FrontierExplosionError(
                f"configuration frontier grew past {self._max_frontier}"
            )
        self._sid = transition.target
        self._steps.append(
            ReplayStep(
                index,
                entry,
                transition.outcome,
                transition.size,
                transition.events,
            )
        )
        self._record_step(
            index, entry, transition.outcome, transition.size,
            previous_size, started,
        )
        return True

    def _fall_back(self, entry: LogEntry) -> bool:
        """Replay the whole case so far through an interpreted session.

        Deterministic replay means the delegate reproduces the exact
        prefix this session already served, so the visible step record
        is seamless.
        """
        self._flush_table_hits()
        self._m_fallbacks.inc()
        delegate = self._fallback()
        for prior in self._steps:
            delegate.feed(prior.entry)
        self._delegate = delegate
        return delegate.feed(entry)

    def _outcome_series(self, outcome: str):
        series = self._entry_series.get(outcome)
        if series is None:
            series = self._m_entries.series(outcome=outcome)
            self._entry_series[outcome] = series
        return series

    def _flush_table_hits(self) -> None:
        if self._table_hits:
            self._m_table_hits.inc(self._table_hits)
            self._table_hits = 0

    def _record_step(
        self,
        index: int,
        entry: LogEntry,
        outcome: str,
        frontier_size: int,
        previous_size: int,
        started: float,
    ) -> None:
        self._outcome_series(outcome).inc()
        if not self._tel.enabled:
            return
        duration = time.perf_counter() - started
        self._m_frontier.observe(frontier_size)
        self._m_seconds.observe(duration)
        if not self._events_on:
            return
        self._tel.events.emit(
            ENTRY_REPLAYED,
            index=index,
            case=entry.case,
            role=entry.role,
            task=entry.task,
            status=str(entry.status),
            outcome=outcome,
            frontier=frontier_size,
            duration_s=round(duration, 6),
        )
        if frontier_size > previous_size:
            self._tel.events.emit(
                FRONTIER_GROWN,
                index=index,
                case=entry.case,
                size=frontier_size,
                previous=previous_size,
            )

    def result(self) -> ComplianceResult:
        if self._delegate is not None:
            return self._delegate.result()
        self._flush_table_hits()
        failed_index, failed_entry = self._failed or (None, None)
        compliant = self._failed is None
        return CompiledResult(
            compliant=compliant,
            trail_length=self._count,
            steps=list(self._steps),
            failed_index=failed_index,
            failed_entry=failed_entry,
            final_configurations=(),
            configurations_created=0,
            state_may_continue=(
                self._automaton.state_may_continue(self._sid)
                if compliant
                else False
            ),
            state_active_sets=(
                self._automaton.state_active_sets(self._sid)
                if compliant
                else frozenset()
            ),
        )

