"""The automaton artifact cache: one RPTB file per purpose and fingerprint.

:class:`AutomatonCache` maps ``(purpose, fingerprint)`` to its
``.table.bin`` artifact (format: :mod:`repro.compile.table`).  Loading
is defensive by contract: every defect — a missing file aside — is
reported as a ``compile.artifact_invalid`` event plus an
``automaton_artifacts_invalid_total{reason}`` increment and treated as
a cache miss, so callers start a fresh automaton transparently.  An
invalid artifact must never fail an audit.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.compile.automaton import PurposeAutomaton
from repro.compile.table import load_table, save_table, table_path
from repro.errors import ArtifactError
from repro.obs import ARTIFACT_INVALID, NULL_TELEMETRY, Telemetry

#: The RPTB reader and writer under the names perfbench/wrappers.py times.
load_artifact = load_table
save_artifact = save_table


class AutomatonCache:
    """A directory of automaton artifacts, keyed by (purpose, fingerprint).

    ``load`` never raises into the audit path: any invalid artifact is
    reported as a ``compile.artifact_invalid`` event and treated as a
    cache miss (returning ``None``), so callers recompile transparently.
    """

    def __init__(self, directory: "str | Path", telemetry: Telemetry | None = None):
        self._directory = Path(directory)
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY

    @property
    def directory(self) -> Path:
        return self._directory

    def path_for(self, purpose: str, fingerprint: str) -> Path:
        return table_path(self._directory, purpose, fingerprint)

    def load(
        self, purpose: str, fingerprint: str
    ) -> Optional[PurposeAutomaton]:
        """The cached automaton, or ``None`` (miss or invalid artifact)."""
        path = self.path_for(purpose, fingerprint)
        try:
            return load_table(
                path, expected_fingerprint=fingerprint, telemetry=self._tel
            )
        except ArtifactError as error:
            if error.reason != "missing":
                self.report_invalid(path, error)
            return None

    def save(self, automaton: PurposeAutomaton) -> Path:
        return save_table(
            automaton,
            self.path_for(automaton.purpose, automaton.fingerprint),
        )

    def report_invalid(self, path: Path, error: ArtifactError) -> None:
        """Emit the ``compile.artifact_invalid`` event for *error*."""
        self._tel.events.emit(
            ARTIFACT_INVALID,
            path=str(path),
            reason=error.reason,
            detail=str(error),
        )
        self._tel.registry.counter(
            "automaton_artifacts_invalid_total",
            "persisted automaton artifacts rejected at load time",
        ).inc(reason=error.reason)
