"""The WeakNext function (Definition 7) and its decidability guard.

``WeakNext(s)`` is the set of states reachable from *s* with **exactly
one** observable label, traversing any finite number of silent
transitions first::

    WeakNext(s) = { s' |  s -l0-> ... -lk-> sk -l-> s'
                          with every li silent and l observable }

Each result carries the observable event taken and the set of tasks
active in the reached state — the ingredients of a configuration
(Definition 6).

Termination (Proposition 1 / Corollary 1): WeakNext is decidable iff the
process is finitely observable w.r.t. L.  Well-founded BPMN processes
guarantee this; as a defense in depth the engine also counts the silent
states it closes over and raises :class:`NotFinitelyObservableError`
past a configurable bound, so a hand-written COWS term with a silent
livelock fails loudly instead of hanging.  A case's processing budget
bounds the exploration in time as well: the case engine arms
:attr:`WeakNextEngine.deadline` for a budgeted step, and an exploration
still running then raises :class:`CaseTimeoutError`.
"""

from __future__ import annotations

import time
from collections import deque

from repro.bpmn.encode import EncodedProcess
from repro.core.observables import Observables, ObservableEvent
from repro.cows.congruence import normalize
from repro.cows.lts import LTS
from repro.cows.terms import Nil, Term, active_tasks
from repro.errors import CaseTimeoutError, NotFinitelyObservableError
from repro.obs import NULL_TELEMETRY, Telemetry, WEAKNEXT_COMPUTED
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS

#: One WeakNext result: the observable event taken, the state reached,
#: and the (role, task) pairs active in that state.
NextState = tuple[ObservableEvent, Term, frozenset[tuple[str, str]]]


def state_active_tasks(state: Term) -> frozenset[tuple[str, str]]:
    """The active (role, task) pairs of a state, as plain strings."""
    return frozenset(
        (role.value, task.value) for role, task in active_tasks(state)
    )


class WeakNextEngine:
    """Computes and memoizes WeakNext over a closed COWS service."""

    def __init__(
        self,
        observables: Observables,
        max_silent_states: int = 50_000,
        telemetry: Telemetry | None = None,
    ):
        self._observables = observables
        self._max_silent_states = max_silent_states
        # The LTS is used purely for its memoized, kill-prioritized,
        # closed-label successor computation; its initial state is unused.
        self._lts = LTS(initial=Nil(), closed=True)
        self._cache: dict[Term, tuple[NextState, ...]] = {}
        self._silent_states_explored = 0
        #: A ``time.perf_counter()`` instant, or None: a fresh exploration
        #: checks it before expanding each state.
        self.deadline: float | None = None
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel = tel
        # Instruments are bound once here so the hot path pays a single
        # attribute load + (possibly no-op) call per touch.
        self._m_hits = tel.registry.counter(
            "weaknext_cache_hits_total", "WeakNext frontiers served from memo"
        )
        self._m_misses = tel.registry.counter(
            "weaknext_cache_misses_total", "WeakNext frontiers computed fresh"
        )
        self._m_silent = tel.registry.histogram(
            "weaknext_silent_states",
            "silent states closed over per fresh WeakNext computation",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._m_seconds = tel.registry.histogram(
            "weaknext_seconds", "wall time per fresh WeakNext computation"
        )

    @classmethod
    def for_encoded(
        cls,
        encoded: EncodedProcess,
        observables: Observables | None = None,
        max_silent_states: int = 50_000,
        telemetry: Telemetry | None = None,
    ) -> "WeakNextEngine":
        return cls(
            observables or Observables.from_encoded(encoded),
            max_silent_states=max_silent_states,
            telemetry=telemetry,
        )

    @property
    def observables(self) -> Observables:
        return self._observables

    @property
    def silent_states_explored(self) -> int:
        """Total silent states closed over so far (cost accounting)."""
        return self._silent_states_explored

    def weak_next(self, state: Term) -> tuple[NextState, ...]:
        """``WeakNext(state)`` with memoization.  *state* must be canonical."""
        cached = self._cache.get(state)
        if cached is not None:
            self._m_hits.inc()
            return cached
        self._m_misses.inc()
        started = time.perf_counter() if self._tel.enabled else 0.0

        results: list[NextState] = []
        seen_results: set[tuple[ObservableEvent, Term]] = set()
        visited: set[Term] = {state}
        queue: deque[Term] = deque([state])
        deadline = self.deadline
        while queue:
            if deadline is not None and time.perf_counter() > deadline:
                # Nothing is cached: the state is explored afresh later.
                raise CaseTimeoutError(
                    "processing budget ran out inside a WeakNext "
                    f"exploration ({len(visited)} states explored)"
                )
            current = queue.popleft()
            for label, target in self._lts.successors(current):
                event = self._observables.classify(label)
                if event is not None:
                    key = (event, target)
                    if key not in seen_results:
                        seen_results.add(key)
                        results.append(
                            (event, target, state_active_tasks(target))
                        )
                elif target not in visited:
                    if len(visited) >= self._max_silent_states:
                        raise NotFinitelyObservableError(
                            "WeakNext exceeded the silent-state bound "
                            f"({self._max_silent_states}); the process is "
                            "likely not finitely observable (not "
                            "well-founded)",
                            states_explored=len(visited),
                        )
                    visited.add(target)
                    queue.append(target)
        self._silent_states_explored += len(visited)
        computed = tuple(results)
        self._cache[state] = computed
        if self._tel.enabled:
            duration = time.perf_counter() - started
            self._m_silent.observe(len(visited))
            self._m_seconds.observe(duration)
            self._tel.events.emit(
                WEAKNEXT_COMPUTED,
                silent_states=len(visited),
                results=len(computed),
                cache_size=len(self._cache),
                duration_s=round(duration, 6),
            )
        return computed

    def normalize(self, term: Term) -> Term:
        """Canonicalize a term so it can be fed to :meth:`weak_next`."""
        return normalize(term)

    def cache_size(self) -> int:
        return len(self._cache)
