"""Algorithm 1 — compliance of an audit trail with a purpose.

Given the COWS encoding of the organizational process implementing a
purpose and the portion of the audit trail belonging to one process
instance (case), the algorithm replays the trail over the process's
transition system and decides whether the trail is a valid execution:

* an entry whose task is *active* in a configuration and which succeeded
  is **absorbed** — the 1-to-n mapping between tasks and log entries of
  Section 3.5 (one task, many logged actions);
* otherwise the entry must be simulated by one of the configuration's
  WeakNext transitions: a matching ``r . q`` task label for successful
  entries, the ``sys.Err`` label for failed ones;
* if no configuration can simulate the entry, the replay stops and an
  infringement is reported.

The checker keeps a *set* of configurations (deduplicated on
``(state, active)``) because gateways make the process nondeterministic
from the auditor's viewpoint — Fig. 6's St10/St11 situation, where two
states allow the same next activity.

:class:`ComplianceSession` exposes the same replay incrementally, for the
"resume the analysis when new actions are recorded" mode Section 4
mentions.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.audit.model import AuditTrail, LogEntry
from repro.bpmn.encode import EncodedProcess
from repro.core.configuration import Configuration
from repro.core.observables import ErrorEvent, Observables, TaskEvent
from repro.core.weaknext import WeakNextEngine
from repro.errors import ReproError
from repro.obs import ENTRY_REPLAYED, FRONTIER_GROWN, NULL_TELEMETRY, Telemetry
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS
from repro.policy.hierarchy import RoleHierarchy


class FrontierExplosionError(ReproError):
    """The configuration frontier exceeded the configured bound."""


#: How an entry was simulated.
ABSORBED = "absorbed"
TASK_TRANSITION = "task"
ERROR_TRANSITION = "error"
REJECTED = "rejected"


@dataclass(frozen=True, slots=True)
class ReplayStep:
    """The audit record of replaying one log entry (one per entry a
    monitor retains, hence the slots)."""

    index: int
    entry: LogEntry
    outcome: str
    frontier_size: int
    events: tuple[str, ...] = ()

    def __str__(self) -> str:
        return (
            f"step {self.index}: {self.entry.role}.{self.entry.task} "
            f"[{self.entry.status}] -> {self.outcome} "
            f"({self.frontier_size} configuration(s))"
        )


@dataclass
class ComplianceResult:
    """The verdict of Algorithm 1 on one case's trail."""

    compliant: bool
    trail_length: int
    steps: list[ReplayStep] = field(default_factory=list)
    failed_index: Optional[int] = None
    failed_entry: Optional[LogEntry] = None
    final_configurations: tuple[Configuration, ...] = ()
    configurations_created: int = 0

    def __bool__(self) -> bool:
        return self.compliant

    @property
    def accepted_prefix_length(self) -> int:
        """How many entries were simulated before failure (all, if compliant)."""
        if self.failed_index is None:
            return self.trail_length
        return self.failed_index

    @property
    def may_continue(self) -> bool:
        """Whether further activities are still possible (Section 4: the
        analysis should be resumed when new actions are recorded)."""
        return any(conf.next for conf in self.final_configurations)

    def active_task_sets(self) -> frozenset[frozenset[tuple[str, str]]]:
        """The distinct active-task sets of the final frontier (Fig. 6 view)."""
        return frozenset(conf.active for conf in self.final_configurations)


def verdict_digest(result: ComplianceResult) -> dict:
    """Project *result* onto the fields every replay tier must reproduce.

    Left out: ``final_configurations`` and ``configurations_created`` —
    the compiled path materializes no COWS terms per case (that is the
    point), and ``may_continue`` and ``active_task_sets()``, which are
    compared, carry the same information — and wall-clock or telemetry
    artifacts, which differ by construction.
    """
    return {
        "compliant": result.compliant,
        "trail_length": result.trail_length,
        "failed_index": result.failed_index,
        "failed_entry": (
            str(result.failed_entry)
            if result.failed_entry is not None
            else None
        ),
        "may_continue": result.may_continue,
        "active_task_sets": sorted(
            sorted(active) for active in result.active_task_sets()
        ),
        "steps": [
            (
                step.index,
                str(step.entry),
                step.outcome,
                step.frontier_size,
                step.events,
            )
            for step in result.steps
        ],
    }


def canonical_digest(result: ComplianceResult) -> str:
    """The digest as one canonical JSON line (sorted keys, no spaces).

    Two replays are *byte-identical* in the sense the streaming audit
    service promises (``docs/serving.md``) exactly when their canonical
    digests are equal strings — this is what the service returns over
    the wire and what the differential suites compare.
    """
    return json.dumps(
        verdict_digest(result), sort_keys=True, separators=(",", ":")
    )


class ComplianceSession:
    """Incremental replay of a case's entries (Algorithm 1, one entry at a time)."""

    def __init__(
        self,
        engine: WeakNextEngine,
        initial: Configuration,
        max_frontier: int = 10_000,
        dedupe_frontier: bool = True,
        telemetry: Telemetry | None = None,
    ):
        self._engine = engine
        self._frontier: list[Configuration] = [initial]
        self._max_frontier = max_frontier
        self._dedupe = dedupe_frontier
        self._steps: list[ReplayStep] = []
        self._failed: Optional[tuple[int, LogEntry]] = None
        self._count = 0
        self._created = 1
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel = tel
        self._m_entries = tel.registry.counter(
            "replay_entries_total", "log entries replayed, by outcome"
        )
        self._m_frontier = tel.registry.histogram(
            "replay_frontier_size",
            "configuration frontier size after each replay step",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._m_seconds = tel.registry.histogram(
            "replay_seconds", "wall time per replayed log entry"
        )

    # -- state -----------------------------------------------------------
    @property
    def compliant(self) -> bool:
        return self._failed is None

    @property
    def frontier(self) -> tuple[Configuration, ...]:
        return tuple(self._frontier)

    @property
    def steps(self) -> list[ReplayStep]:
        return list(self._steps)

    @property
    def entries_fed(self) -> int:
        return self._count

    @property
    def may_continue(self) -> bool:
        """Whether further activities are still possible from here."""
        if self._failed is not None:
            return False
        return any(conf.next for conf in self._frontier)

    # -- the algorithm ------------------------------------------------------
    def feed(self, entry: LogEntry) -> bool:
        """Replay one entry; returns whether the trail is still compliant.

        Once non-compliant, further entries are recorded as rejected
        without exploring (the paper's algorithm stops at the first
        infringement; we keep accepting input so callers can account for
        the full trail).
        """
        index = self._count
        self._count += 1
        if self._failed is not None:
            self._steps.append(ReplayStep(index, entry, REJECTED, 0))
            self._m_entries.inc(outcome=REJECTED)
            return False
        started = time.perf_counter() if self._tel.enabled else 0.0
        previous_size = len(self._frontier)

        observables = self._engine.observables
        next_frontier: list[Configuration] = []
        seen: set[Configuration] = set()
        outcomes: set[str] = set()
        events: list[str] = []

        for conf in self._frontier:
            absorbable = (
                entry.succeeded
                and observables.entry_task_active(conf.active, entry)
            )
            if absorbable:
                # Line 16: the task stays active; the configuration
                # survives unchanged.
                if not self._dedupe or conf not in seen:
                    seen.add(conf)
                    next_frontier.append(conf)
                outcomes.add(ABSORBED)
                continue
            # Lines 9-13: look for a WeakNext transition simulating the entry.
            for successor in conf.next:
                event = successor[0]
                if not observables.event_matches_entry(event, entry):
                    continue
                reached = Configuration.reached(self._engine, successor)
                self._created += 1
                if not self._dedupe or reached not in seen:
                    seen.add(reached)
                    next_frontier.append(reached)
                outcomes.add(
                    ERROR_TRANSITION
                    if isinstance(event, ErrorEvent)
                    else TASK_TRANSITION
                )
                events.append(str(event))

        if not next_frontier:
            self._failed = (index, entry)
            self._steps.append(ReplayStep(index, entry, REJECTED, 0))
            self._record_step(index, entry, REJECTED, 0, previous_size, started)
            return False
        if len(next_frontier) > self._max_frontier:
            raise FrontierExplosionError(
                f"configuration frontier grew past {self._max_frontier}"
            )
        self._frontier = next_frontier
        outcome = _summarize_outcomes(outcomes)
        self._steps.append(
            ReplayStep(index, entry, outcome, len(next_frontier), tuple(events))
        )
        self._record_step(
            index, entry, outcome, len(next_frontier), previous_size, started
        )
        return True

    def _record_step(
        self,
        index: int,
        entry: LogEntry,
        outcome: str,
        frontier_size: int,
        previous_size: int,
        started: float,
    ) -> None:
        self._m_entries.inc(outcome=outcome)
        if not self._tel.enabled:
            return
        duration = time.perf_counter() - started
        self._m_frontier.observe(frontier_size)
        self._m_seconds.observe(duration)
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
        failed_index, failed_entry = self._failed or (None, None)
        return ComplianceResult(
            compliant=self._failed is None,
            trail_length=self._count,
            steps=list(self._steps),
            failed_index=failed_index,
            failed_entry=failed_entry,
            final_configurations=tuple(self._frontier)
            if self._failed is None
            else (),
            configurations_created=self._created,
        )


def _summarize_outcomes(outcomes: set[str]) -> str:
    if len(outcomes) == 1:
        return next(iter(outcomes))
    return "+".join(sorted(outcomes))


class ComplianceChecker:
    """Runs Algorithm 1 for one organizational process (purpose).

    Reusable across cases and objects: the WeakNext cache is shared, so
    auditing many instances of the same process amortizes exploration —
    the property behind the paper's scalability argument (Section 7).
    """

    def __init__(
        self,
        encoded: EncodedProcess,
        hierarchy: RoleHierarchy | None = None,
        max_silent_states: int = 50_000,
        max_frontier: int = 10_000,
        dedupe_frontier: bool = True,
        silent_tasks: frozenset[str] = frozenset(),
        telemetry: Telemetry | None = None,
    ):
        """``silent_tasks`` marks tasks the IT systems cannot log; their
        execution becomes unobservable so trails missing them still
        replay (Section 7's "silent activities").  ``dedupe_frontier=False``
        disables the configuration deduplication of design decision D2 —
        exists for the ablation benchmark only; leave it on in production
        use.  ``telemetry`` (default: disabled) instruments the engine and
        every session this checker creates — see :mod:`repro.obs`."""
        self._encoded = encoded
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._observables = Observables.from_encoded(
            encoded, hierarchy, silent_tasks=frozenset(silent_tasks)
        )
        self._engine = WeakNextEngine(
            self._observables,
            max_silent_states=max_silent_states,
            telemetry=self._tel,
        )
        self._initial = Configuration.initial(self._engine, encoded.term)
        self._max_frontier = max_frontier
        self._dedupe = dedupe_frontier
        self._automaton = None

    @property
    def encoded(self) -> EncodedProcess:
        return self._encoded

    @property
    def engine(self) -> WeakNextEngine:
        return self._engine

    @property
    def observables(self) -> Observables:
        return self._observables

    @property
    def initial_configuration(self) -> Configuration:
        return self._initial

    @property
    def purpose(self) -> str:
        return self._encoded.purpose

    @property
    def automaton(self):
        """The attached purpose automaton; ``None`` replays interpreted."""
        return self._automaton

    def attach_automaton(self, automaton) -> "ComplianceChecker":
        """Enable the compiled fast path: sessions replay through
        *automaton* (see :mod:`repro.compile`), falling back to the
        interpreted engine on automaton miss or explosion.

        The automaton memoizes the deduplicated step function, so it is
        incompatible with the ``dedupe_frontier=False`` ablation.
        """
        if not self._dedupe:
            raise ValueError(
                "compiled replay requires dedupe_frontier=True"
            )
        automaton.bind(self._engine, self._initial)
        self._automaton = automaton
        return self

    def session(self):
        """A fresh incremental replay starting at the process's initial
        state — compiled when an automaton is attached, interpreted
        otherwise."""
        if self._automaton is not None:
            from repro.compile.replay import CompiledSession

            return CompiledSession(
                self._automaton,
                max_frontier=self._max_frontier,
                telemetry=self._tel,
                fallback=self.interpreted_session,
            )
        return self.interpreted_session()

    def interpreted_session(self) -> ComplianceSession:
        """A fresh *interpreted* replay (ignores any attached automaton)."""
        return ComplianceSession(
            self._engine,
            self._initial,
            max_frontier=self._max_frontier,
            dedupe_frontier=self._dedupe,
            telemetry=self._tel,
        )

    def check(self, trail: AuditTrail | Iterable[LogEntry]) -> ComplianceResult:
        """Run Algorithm 1 on a (case-projected) trail."""
        session = self.session()
        with self._tel.tracer.span("replay", purpose=self.purpose):
            for entry in trail:
                session.feed(entry)
        return session.result()
