"""Purpose-automaton compiler: shared, persistent replay acceleration.

Algorithm 1's frontier-set replay is a lazy subset construction over
observable labels, so it compiles: this package determinizes a
well-founded process's observable LTS into a **purpose automaton** —
integer states for deduplicated configuration frontiers, a dense
``state x symbol`` table of precomputed step records over canonical
entry keys.  A warm replay is two indexings per log entry; the table
grows in place on a miss, and is shared across cases, workers, and
(via on-disk artifacts) runs.

Layers:

* :mod:`repro.compile.fingerprint` — content hashes keying and
  invalidating every cached artifact;
* :mod:`repro.compile.automaton` — the growable dense table (with
  ``max_states`` guard) plus the eager :func:`compile_automaton`;
* :mod:`repro.compile.replay` — :class:`CompiledSession` /
  :class:`CompiledChecker`, the drop-in replay surface with interpreted
  fallback;
* :mod:`repro.compile.table` — the RPTB artifact, the automaton's one
  on-disk format (versioned, checksummed, atomically written);
* :mod:`repro.compile.artifact` — the :class:`AutomatonCache` directory
  abstraction;
* :mod:`repro.compile.checkpoint` — revision-gated incremental saves
  during long audits.

Design, artifact format, and invalidation rules: ``docs/compilation.md``.
"""

from __future__ import annotations

from typing import Optional

from repro.compile.artifact import AutomatonCache
from repro.compile.automaton import (
    ERR_KEY,
    REJECTED_STATE,
    UNKNOWN,
    EntryKeyer,
    PurposeAutomaton,
    Transition,
    compile_automaton,
)
from repro.compile.checkpoint import CheckpointWriter
from repro.compile.fingerprint import (
    FINGERPRINT_VERSION,
    fingerprint_encoded,
    fingerprint_process,
    frontier_key,
    term_digest,
)
from repro.compile.replay import (
    CompiledChecker,
    CompiledResult,
    CompiledSession,
)
from repro.compile.table import (
    TABLE_FORMAT_NAME,
    TABLE_FORMAT_VERSION,
    decode_table,
    encode_table,
    load_table,
    save_table,
    table_path,
)
from repro.errors import (
    ArtifactError,
    AutomatonExplosionError,
    AutomatonUnavailableError,
    CompileError,
)


def warm_checker(
    checker,
    cache: Optional[AutomatonCache] = None,
    max_states: int = 50_000,
    telemetry=None,
) -> PurposeAutomaton:
    """Attach a (cached, else fresh) automaton to *checker*; returns it.

    This is the auditor/monitor entry point: compute the checker's
    fingerprint, try the artifact cache, fall back to a fresh growing
    automaton on miss or invalid artifact, and bind it so
    ``checker.session()`` serves compiled replays from now on.  Never
    raises on a bad artifact (it is reported and recompiled).
    """
    observables = checker.observables
    fingerprint = fingerprint_encoded(
        checker.encoded,
        hierarchy=observables.hierarchy,
        silent_tasks=observables.silent_tasks,
    )
    if cache is not None:
        automaton = cache.load(checker.purpose, fingerprint)
        if automaton is not None:
            try:
                checker.attach_automaton(automaton)
            except CompileError as error:
                path = cache.path_for(checker.purpose, fingerprint)
                reported = (
                    error
                    if isinstance(error, ArtifactError)
                    else ArtifactError(str(error), reason="state_mismatch")
                )
                cache.report_invalid(path, reported)
            else:
                return automaton
    automaton = PurposeAutomaton(
        fingerprint=fingerprint,
        purpose=checker.purpose,
        roles=checker.encoded.roles,
        hierarchy=observables.hierarchy,
        max_states=max_states,
        telemetry=telemetry,
    )
    checker.attach_automaton(automaton)
    return automaton


__all__ = [
    "ERR_KEY",
    "FINGERPRINT_VERSION",
    "REJECTED_STATE",
    "ArtifactError",
    "AutomatonCache",
    "AutomatonExplosionError",
    "AutomatonUnavailableError",
    "CheckpointWriter",
    "CompileError",
    "CompiledChecker",
    "CompiledResult",
    "CompiledSession",
    "EntryKeyer",
    "PurposeAutomaton",
    "TABLE_FORMAT_NAME",
    "TABLE_FORMAT_VERSION",
    "Transition",
    "UNKNOWN",
    "compile_automaton",
    "decode_table",
    "encode_table",
    "fingerprint_encoded",
    "fingerprint_process",
    "frontier_key",
    "load_table",
    "save_table",
    "table_path",
    "term_digest",
    "warm_checker",
]
