"""Incremental, crash-safe persistence of growing automata.

A long batch audit keeps discovering automaton states (every novel
trail shape materializes new frontiers).  Losing those to a crash means
the next run pays the WeakNext exploration again, so the auditor
checkpoints the automaton *during* the audit, not only at the end.

:class:`CheckpointWriter` is revision-gated: the automaton bumps a
monotonic ``revision`` counter on every new state or transition, and
``maybe_save`` persists only when enough growth accumulated (or enough
time passed) since the last checkpoint — so a warm automaton serving
pure table hits costs one integer comparison per case.  Each save is a
full atomic RPTB rewrite (:func:`repro.compile.table.save_table`: temp
file + fsync + ``os.replace``), so a crash mid-checkpoint leaves the
previous checkpoint intact.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional

from repro.compile.automaton import PurposeAutomaton
from repro.compile.table import save_table
from repro.obs import AUTOMATON_CHECKPOINT, NULL_TELEMETRY, Telemetry


class CheckpointWriter:
    """Periodically persists one automaton's newly materialized states."""

    def __init__(
        self,
        automaton: PurposeAutomaton,
        path: "str | Path",
        min_growth: int = 32,
        min_interval_s: float = 5.0,
        telemetry: Telemetry | None = None,
    ):
        """``min_growth`` is how many revision bumps (new states or
        transitions) must accumulate before a timed save is considered;
        ``min_interval_s`` throttles disk writes regardless of growth.
        Either threshold alone never triggers a save — growth is
        necessary, the interval merely rate-limits."""
        self._automaton = automaton
        self._path = Path(path)
        self._min_growth = min_growth
        self._min_interval_s = min_interval_s
        self._saved_revision = automaton.revision
        self._last_save = time.monotonic()
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel = tel
        self._m_checkpoints = tel.registry.counter(
            "automaton_checkpoints_total",
            "incremental automaton checkpoints written",
        )

    @property
    def path(self) -> Path:
        return self._path

    @property
    def automaton(self) -> PurposeAutomaton:
        return self._automaton

    @property
    def pending_growth(self) -> int:
        """Revision bumps since the last persisted checkpoint."""
        return self._automaton.revision - self._saved_revision

    def maybe_save(self, force: bool = False) -> Optional[Path]:
        """Checkpoint if warranted; returns the path written, else ``None``.

        ``force=True`` flushes any unsaved growth regardless of the
        thresholds (used at end of audit); with no growth at all it is
        still a no-op.
        """
        growth = self.pending_growth
        if growth <= 0:
            return None
        if not force:
            if growth < self._min_growth:
                return None
            if time.monotonic() - self._last_save < self._min_interval_s:
                return None
        path = save_table(self._automaton, self._path)
        self._saved_revision = self._automaton.revision
        self._last_save = time.monotonic()
        self._m_checkpoints.inc()
        if self._tel.enabled:
            self._tel.events.emit(
                AUTOMATON_CHECKPOINT,
                purpose=self._automaton.purpose,
                states=self._automaton.n_states,
                transitions=self._automaton.transition_count,
                path=str(path),
            )
        return path

    def close(self) -> Optional[Path]:
        """Flush any unsaved growth (equivalent to ``maybe_save(force=True)``)."""
        return self.maybe_save(force=True)
