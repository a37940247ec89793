"""The purpose automaton: lazy subset construction into a dense table.

Algorithm 1's frontier-set replay *is* a subset construction: each step
maps a deduplicated set of ``(state, active)`` configurations to the
next one, driven by the entry being replayed.  Two different log entries
drive the very same step whenever they agree on

* success/failure (a failed entry is simulated only by ``sys.Err``), and
* for successful entries, the task plus the set of process pool roles
  the entry's role specializes under the (fixed) hierarchy — that set
  fully determines both absorption (Algorithm 1, line 8) and which
  ``r . q`` WeakNext transitions match (line 10).

So the automaton's alphabet is not raw log entries but canonical **entry
keys** (:meth:`EntryKeyer.key`), and its states are integer
ids for frontiers, interned by content digest.  Order matters: the
interpreted replay's step record (event ordering, frontier ordering)
depends on configuration iteration order, and compiled replay promises
bit-identical steps — so the state key preserves frontier order (see
:func:`repro.compile.fingerprint.frontier_key`).

Transitions live in one **dense table**: an ``int32`` cell array,
``cells[sid * n_symbols + sym]``, whose columns are the interned entry
keys and whose values index a pool of deduplicated :class:`Transition`
records (target, outcome, simulated events, frontier size).  A warm
replay step is two list/array indexings.  The table grows in place:
an :data:`UNKNOWN` cell runs one WeakNext step through the existing
:class:`~repro.core.weaknext.WeakNextEngine` and writes the cell, a new
frontier appends a row, a key never seen before appends a column.  A
``max_states`` guard mirrors ``FrontierExplosionError`` one level up —
past it, replay falls back to the interpreted engine.

Every state remembers its **witness path** (the entry-key sequence that
discovered it), which is how a disk-loaded automaton re-materializes
configurations on demand: no COWS terms are persisted, only digests
(the artifact format is :mod:`repro.compile.table`).
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.audit.model import LogEntry
from repro.compile.fingerprint import frontier_key, term_digest
from repro.core.compliance import (
    ABSORBED,
    ERROR_TRANSITION,
    TASK_TRANSITION,
    _summarize_outcomes,
)
from repro.core.configuration import Configuration
from repro.core.observables import ErrorEvent
from repro.core.weaknext import WeakNextEngine
from repro.errors import (
    ArtifactError,
    AutomatonExplosionError,
    AutomatonUnavailableError,
    CompileError,
)
from repro.obs import AUTOMATON_COMPILED, NULL_TELEMETRY, Telemetry
from repro.policy.hierarchy import RoleHierarchy

#: The transition target meaning "no configuration can simulate the entry".
REJECTED_STATE = -1

#: Cell value meaning "this transition has not been derived yet".
UNKNOWN = -1

#: The entry key of every failed entry (only ``sys.Err`` can simulate it).
ERR_KEY = "e"

#: Field separator inside task keys; U+001F never occurs in BPMN names.
_SEP = "\x1f"


class EntryKeyer:
    """Maps log entries onto the automaton's canonical alphabet."""

    def __init__(self, roles: Iterable[str], hierarchy: RoleHierarchy | None):
        self._roles = frozenset(roles)
        self._hierarchy = hierarchy or RoleHierarchy()
        self._matched: dict[str, frozenset[str]] = {}
        self._key_cache: dict[tuple[str, str], str] = {}

    @property
    def roles(self) -> frozenset[str]:
        return self._roles

    @property
    def hierarchy(self) -> RoleHierarchy:
        return self._hierarchy

    def matched_roles(self, entry_role: str) -> frozenset[str]:
        """The process pool roles *entry_role* specializes (incl. itself)."""
        cached = self._matched.get(entry_role)
        if cached is None:
            cached = frozenset(
                pool
                for pool in self._roles
                if self._hierarchy.is_specialization_of(entry_role, pool)
            )
            self._matched[entry_role] = cached
        return cached

    def task_key(self, task: str, entry_role: str) -> str:
        cached = self._key_cache.get((task, entry_role))
        if cached is None:
            suffix = ",".join(sorted(self.matched_roles(entry_role)))
            cached = f"t{_SEP}{task}{_SEP}{suffix}"
            self._key_cache[(task, entry_role)] = cached
        return cached

    def key(self, entry: LogEntry) -> str:
        """The canonical alphabet symbol *entry* drives."""
        if entry.failed:
            return ERR_KEY
        return self.task_key(entry.task, entry.role)


def _parse_key(key: str) -> tuple[Optional[str], frozenset[str]]:
    """``(task, matched_roles)`` of a task key; ``(None, ø)`` for ERR_KEY."""
    if key == ERR_KEY:
        return None, frozenset()
    try:
        _, task, suffix = key.split(_SEP)
    except ValueError:
        raise CompileError(f"malformed entry key {key!r}") from None
    matched = frozenset(suffix.split(",")) if suffix else frozenset()
    return task, matched


@dataclass(frozen=True)
class Transition:
    """One compiled step: everything a replay records about it."""

    target: int  #: target state id, or :data:`REJECTED_STATE`
    outcome: str  #: the summarized step outcome (``absorbed``/``task``/...)
    events: tuple[str, ...]  #: the simulated observable events, in order
    size: int  #: the target frontier size (0 when rejected)


class _State:
    """One interned frontier's metadata (internal)."""

    __slots__ = ("key", "size", "may_continue", "active", "path", "configs")

    def __init__(
        self,
        key: str,
        size: int,
        may_continue: bool,
        active: tuple[tuple[tuple[str, str], ...], ...],
        path: tuple[str, ...],
        configs: Optional[tuple[Configuration, ...]] = None,
    ):
        self.key = key
        self.size = size
        self.may_continue = may_continue
        self.active = active  # sorted (role, task) pairs, per configuration
        self.path = path  # entry-key witness path from the initial state
        self.configs = configs


#: A callable producing the COWS backend on demand: ``(engine, initial)``.
EngineSource = Callable[[], tuple[WeakNextEngine, Configuration]]


class PurposeAutomaton:
    """The compiled observable LTS of one purpose's process.

    The automaton is usable in three modes:

    * **bound** — a :class:`WeakNextEngine` plus initial configuration
      are attached (:meth:`bind`); unknown cells are derived on demand
      and written in place;
    * **lazily bound** — an :attr:`engine source <set_engine_source>` is
      attached instead; the COWS backend is built only on the first
      unknown cell (this is how parallel workers avoid re-encoding the
      BPMN when the shipped automaton already covers the trail);
    * **pure disk** — neither; an unknown cell raises
      :class:`~repro.errors.AutomatonUnavailableError` and the caller
      falls back to interpreted replay.

    ``cells``, ``pool``, ``symbols`` and ``n_symbols`` are the dense
    table, read directly by compiled replay; only this class writes
    them.  Growth is single-threaded: every shard or worker owns its
    automaton.
    """

    def __init__(
        self,
        fingerprint: str,
        purpose: str,
        roles: Iterable[str],
        hierarchy: RoleHierarchy | None = None,
        max_states: int = 50_000,
        telemetry: Telemetry | None = None,
    ):
        self._fingerprint = fingerprint
        self._purpose = purpose
        self._keyer = EntryKeyer(roles, hierarchy)
        self._max_states = max_states
        self._states: list[_State] = []
        self._by_key: dict[str, int] = {}
        #: The column alphabet: interned entry keys, in column order.
        self.symbols: list[str] = []
        self.n_symbols = 0
        self._symbol_ids: dict[str, int] = {}
        #: ``(task, role) -> column`` — each pair is keyed at most once.
        self._entry_symbols: dict[tuple[str, str], int] = {}
        #: Row-major ``n_states x n_symbols`` pool indices or UNKNOWN.
        self.cells = array("i")
        #: The deduplicated transitions the cells index.
        self.pool: list[Transition] = []
        self._pool_index: dict[Transition, int] = {}
        self._engine: Optional[WeakNextEngine] = None
        self._engine_source: Optional[EngineSource] = None
        #: Monotonic edit counter; bumps on every new state or transition.
        #: Checkpointing compares it against the last persisted revision.
        self.revision = 0
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._m_states = tel.registry.counter(
            "automaton_states_total", "purpose-automaton states materialized"
        )
        self._m_misses = tel.registry.counter(
            "automaton_misses_total",
            "replay steps that found an UNKNOWN cell and derived it",
        )
        self._m_build = tel.registry.histogram(
            "automaton_build_seconds",
            "wall time spent deriving unknown automaton table cells",
        )

    # -- identity --------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    @property
    def purpose(self) -> str:
        return self._purpose

    @property
    def keyer(self) -> EntryKeyer:
        return self._keyer

    @property
    def max_states(self) -> int:
        return self._max_states

    @property
    def n_states(self) -> int:
        return len(self._states)

    @property
    def transition_count(self) -> int:
        """Cells holding a derived transition (not UNKNOWN)."""
        return len(self.cells) - self.cells.count(UNKNOWN)

    # -- the column alphabet ---------------------------------------------
    def intern(self, key: str) -> int:
        """The column of entry key *key*, appending one if it is new."""
        sym = self._symbol_ids.get(key)
        if sym is None:
            sym = self.n_symbols
            if sym:
                old, cells = self.cells, array("i")
                for row in range(0, len(old), sym):
                    cells.extend(old[row:row + sym])
                    cells.append(UNKNOWN)
            else:
                cells = array("i", [UNKNOWN]) * len(self._states)
            self.cells = cells
            self.symbols.append(key)
            self._symbol_ids[key] = sym
            self.n_symbols = sym + 1
        return sym

    def entry_symbol(self, task: str, role: str) -> int:
        """The column a successful ``(task, role)`` entry drives.

        The canonical key is built and hashed once per distinct pair;
        later entries cost one tuple-keyed dict probe.
        """
        pair = (task, role)
        sym = self._entry_symbols.get(pair)
        if sym is None:
            sym = self.intern(self._keyer.task_key(task, role))
            self._entry_symbols[pair] = sym
        return sym

    # -- binding to the COWS backend ------------------------------------
    def bind(self, engine: WeakNextEngine, initial: Configuration) -> None:
        """Attach the interpreting engine (and verify the initial state).

        A fingerprint match should guarantee the initial frontier key
        matches too; a mismatch means the artifact was corrupted in a
        way that preserved its fingerprint field, so it is rejected the
        same way (:class:`~repro.errors.ArtifactError`).
        """
        actual = frontier_key(self._pairs((initial,)))
        if self._states:
            expected = self._states[0].key
            if actual != expected:
                raise ArtifactError(
                    "automaton initial state does not match the process "
                    f"(artifact key {expected[:12]}…, "
                    f"computed {actual[:12]}…)",
                    reason="state_mismatch",
                )
            self._states[0].configs = (initial,)
        self._engine = engine
        if not self._states:
            self._intern((initial,), path=())

    def set_engine_source(self, source: Optional[EngineSource]) -> None:
        """Attach a lazy engine factory (invoked on the first unknown cell)."""
        self._engine_source = source

    @property
    def bound(self) -> bool:
        return self._engine is not None

    def _require_engine(self) -> WeakNextEngine:
        if self._engine is None:
            if self._engine_source is None:
                raise AutomatonUnavailableError(
                    f"automaton for {self._purpose!r} has no engine attached"
                    " and no engine source to build one"
                )
            engine, initial = self._engine_source()
            self.bind(engine, initial)
        return self._engine

    # -- state interning -------------------------------------------------
    @staticmethod
    def _pairs(
        configs: Iterable[Configuration],
    ) -> list[tuple[str, tuple[tuple[str, str], ...]]]:
        return [
            (term_digest(conf.state), tuple(sorted(conf.active)))
            for conf in configs
        ]

    def _intern(
        self, configs: tuple[Configuration, ...], path: tuple[str, ...]
    ) -> int:
        key = frontier_key(self._pairs(configs))
        sid = self._by_key.get(key)
        if sid is not None:
            state = self._states[sid]
            if state.configs is None:
                state.configs = configs
            return sid
        if len(self._states) >= self._max_states:
            raise AutomatonExplosionError(
                f"purpose automaton for {self._purpose!r} grew past "
                f"{self._max_states} states",
                states=len(self._states),
            )
        sid = len(self._states)
        self._states.append(
            _State(
                key=key,
                size=len(configs),
                may_continue=any(conf.next for conf in configs),
                active=tuple(tuple(sorted(conf.active)) for conf in configs),
                path=path,
                configs=configs,
            )
        )
        self._by_key[key] = sid
        self.cells.extend(array("i", [UNKNOWN]) * self.n_symbols)
        self.revision += 1
        self._m_states.inc()
        return sid

    def _load(
        self,
        states: list[_State],
        symbols: list[str],
        pool: list[Transition],
        cells: array,
    ) -> None:
        """Install a decoded table (the artifact reader's entry point)."""
        self._states = states
        self._by_key = {state.key: sid for sid, state in enumerate(states)}
        self.symbols = symbols
        self.n_symbols = len(symbols)
        self._symbol_ids = {key: sym for sym, key in enumerate(symbols)}
        self.pool = pool
        self._pool_index = {t: index for index, t in enumerate(pool)}
        self.cells = cells

    def initial(self) -> int:
        """The initial state id (0), materializing it if necessary."""
        if not self._states:
            self._require_engine()
        return 0

    # -- the compiled step function --------------------------------------
    def extend(self, sid: int, key: str) -> Transition:
        """Derive the unknown cell ``sid --key-->`` and write it in place.

        Counted as a miss (``automaton_misses_total``).  Raises
        :class:`~repro.errors.AutomatonUnavailableError` when no engine
        is available and :class:`~repro.errors.AutomatonExplosionError`
        when the target frontier would exceed ``max_states`` — both of
        which compiled replay turns into an interpreted fallback.
        """
        self._m_misses.inc()
        return self._derive(sid, key)

    def _derive(self, sid: int, key: str) -> Transition:
        started = time.perf_counter()
        self._require_engine()
        sym = self.intern(key)
        configs = self.materialize(sid)
        next_frontier, outcomes, events = self._apply(configs, key)
        if not next_frontier:
            transition = Transition(REJECTED_STATE, "rejected", (), 0)
        else:
            target = self._intern(
                tuple(next_frontier), self._states[sid].path + (key,)
            )
            transition = Transition(
                target,
                _summarize_outcomes(outcomes),
                tuple(events),
                len(next_frontier),
            )
        index = self._pool_index.get(transition)
        if index is None:
            index = len(self.pool)
            self.pool.append(transition)
            self._pool_index[transition] = index
        self.cells[sid * self.n_symbols + sym] = index
        self.revision += 1
        self._m_build.observe(time.perf_counter() - started)
        return transition

    def _apply(
        self, configs: tuple[Configuration, ...], key: str
    ) -> tuple[list[Configuration], set[str], list[str]]:
        """One Algorithm 1 step over *configs*, driven by entry key *key*.

        This mirrors ``ComplianceSession.feed`` exactly — including the
        un-deduplicated ``events`` append — so compiled steps are
        bit-identical to interpreted ones.
        """
        engine = self._engine
        assert engine is not None
        task, matched = _parse_key(key)
        next_frontier: list[Configuration] = []
        seen: set[Configuration] = set()
        outcomes: set[str] = set()
        events: list[str] = []
        for conf in configs:
            if task is not None and any(
                q == task and r in matched for r, q in conf.active
            ):
                if conf not in seen:
                    seen.add(conf)
                    next_frontier.append(conf)
                outcomes.add(ABSORBED)
                continue
            for successor in conf.next:
                event = successor[0]
                if isinstance(event, ErrorEvent):
                    if task is not None:
                        continue
                    outcome = ERROR_TRANSITION
                else:
                    if (
                        task is None
                        or event.task != task
                        or event.role not in matched
                    ):
                        continue
                    outcome = TASK_TRANSITION
                reached = Configuration.reached(engine, successor)
                if reached not in seen:
                    seen.add(reached)
                    next_frontier.append(reached)
                outcomes.add(outcome)
                events.append(str(event))
        return next_frontier, outcomes, events

    # -- materialization --------------------------------------------------
    def materialize(self, sid: int) -> tuple[Configuration, ...]:
        """The configurations of state *sid*, replaying its witness path
        from the initial state if they were not kept (disk-loaded
        automata persist digests, not COWS terms)."""
        state = self._states[sid]
        if state.configs is not None:
            return state.configs
        engine = self._require_engine()
        configs = self._states[0].configs
        assert configs is not None  # bind() always sets state 0
        for key in state.path:
            step_frontier, _, _ = self._apply(configs, key)
            configs = tuple(step_frontier)
            cursor = self._by_key.get(frontier_key(self._pairs(configs)))
            if cursor is not None and self._states[cursor].configs is None:
                self._states[cursor].configs = configs
        if frontier_key(self._pairs(configs)) != state.key:
            raise ArtifactError(
                f"state {sid} of automaton for {self._purpose!r} could not "
                "be reconstructed from its witness path",
                reason="state_mismatch",
            )
        state.configs = configs
        return configs

    # -- per-state classification ----------------------------------------
    def state_size(self, sid: int) -> int:
        return self._states[sid].size

    def state_may_continue(self, sid: int) -> bool:
        return self._states[sid].may_continue

    def state_active_sets(
        self, sid: int
    ) -> frozenset[frozenset[tuple[str, str]]]:
        return frozenset(
            frozenset(pairs) for pairs in self._states[sid].active
        )


def compile_automaton(
    checker,
    fingerprint: Optional[str] = None,
    max_states: int = 50_000,
    telemetry: Telemetry | None = None,
    exhaustive: bool = True,
) -> PurposeAutomaton:
    """Eagerly compile a checker's process into a purpose automaton.

    The construction BFS-explores every state reachable over the
    **canonical alphabet** — the distinct entry keys the process can
    ever be driven with: one per (task, matched-role-set) combination
    drawn from the process's tasks and the roles mentioned by process
    or hierarchy, plus the error key.  ``exhaustive=False`` interns only
    the initial state, leaving everything to lazy demand.

    If the alphabet closure exceeds *max_states*, the partially built
    automaton is returned (it stays correct — unknown cells are derived
    lazily at replay time).
    """
    from repro.compile.fingerprint import fingerprint_encoded

    started = time.perf_counter()
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    observables = checker.observables
    if fingerprint is None:
        fingerprint = fingerprint_encoded(
            checker.encoded,
            hierarchy=observables.hierarchy,
            silent_tasks=observables.silent_tasks,
        )
    automaton = PurposeAutomaton(
        fingerprint=fingerprint,
        purpose=checker.purpose,
        roles=checker.encoded.roles,
        hierarchy=observables.hierarchy,
        max_states=max_states,
        telemetry=tel,
    )
    checker.attach_automaton(automaton)
    if exhaustive:
        keyer = automaton.keyer
        universe = set(checker.encoded.roles) | {
            role
            for role in observables.hierarchy.roles()
            if keyer.matched_roles(role)
        }
        alphabet = sorted(
            {
                keyer.task_key(task, role)
                for task in checker.encoded.tasks
                for role in universe
            }
            | {ERR_KEY}
        )
        # Columns first, so the BFS below never relayouts the table.
        columns = [automaton.intern(key) for key in alphabet]
        queue = [automaton.initial()]
        visited = {queue[0]}
        try:
            while queue:
                sid = queue.pop()
                for key, sym in zip(alphabet, columns):
                    index = automaton.cells[sid * automaton.n_symbols + sym]
                    transition = (
                        automaton.pool[index]
                        if index >= 0
                        else automaton._derive(sid, key)
                    )
                    target = transition.target
                    if target != REJECTED_STATE and target not in visited:
                        visited.add(target)
                        queue.append(target)
        except AutomatonExplosionError:
            pass  # partial automata are fine: replay extends them lazily
    if tel.enabled:
        tel.events.emit(
            AUTOMATON_COMPILED,
            purpose=checker.purpose,
            states=automaton.n_states,
            transitions=automaton.transition_count,
            symbols=automaton.n_symbols,
            pool=len(automaton.pool),
            duration_s=round(time.perf_counter() - started, 6),
        )
    return automaton
