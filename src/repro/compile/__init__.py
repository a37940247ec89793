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
* :mod:`repro.compile.replay` — :class:`CompiledSession`, the drop-in
  replay surface with interpreted fallback;
* :mod:`repro.compile.table` — the RPTB artifact, the automaton's one
  on-disk format (versioned, checksummed, atomically written);
* :mod:`repro.compile.artifact` — the :class:`AutomatonCache` directory
  abstraction, whose ``save`` is the one artifact writer.

Two entry points tie the layers together: :func:`build_checker` makes
the warmed checkers of the case engine, and :func:`precompile` is the
one eager compile-into-the-cache step of ``repro compile``, the
parallel auditor and ``repro serve``.  Besides :func:`precompile`, only
the end of a batch replay writes an artifact: the engine saves what its
replays grew (:meth:`repro.core.monitor.OnlineMonitor.save_automata`).

Design, artifact format, and invalidation rules: ``docs/compilation.md``.
"""

from __future__ import annotations

from pathlib import Path
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
from repro.compile.fingerprint import (
    FINGERPRINT_VERSION,
    artifact_key,
    fingerprint_encoded,
    fingerprint_process,
    frontier_key,
    term_digest,
)
from repro.compile.replay import CompiledResult, CompiledSession
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
from repro.core.compliance import ComplianceChecker
from repro.core.observables import Observables


def warm_checker(
    checker,
    cache: Optional[AutomatonCache] = None,
    telemetry=None,
) -> PurposeAutomaton:
    """Attach a (cached, else fresh) automaton to *checker*; returns it.

    This is the case engine's entry point: compute the checker's
    artifact key, try the artifact cache, fall back to a fresh growing
    automaton on miss or invalid artifact, and bind it so
    ``checker.session()`` serves compiled replays from now on.  Never
    raises on a bad artifact (it is reported and recompiled).
    """
    observables = checker.observables
    fingerprint = artifact_key(checker.encoded, observables)
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
        telemetry=telemetry,
    )
    checker.attach_automaton(automaton)
    return automaton


def build_checker(
    registry,
    purpose: str,
    hierarchy=None,
    max_silent_states: int = 50_000,
    compiled: bool = False,
    cache: Optional[AutomatonCache] = None,
    telemetry=None,
) -> ComplianceChecker:
    """Build the replay checker of one purpose, as the case engine does.

    Encodes through the registry's memo and, when *compiled*, warms the
    checker with an automaton from *cache* (:func:`warm_checker`).
    """
    checker = ComplianceChecker(
        registry.encoded_for(purpose),
        hierarchy=hierarchy,
        max_silent_states=max_silent_states,
        telemetry=telemetry,
    )
    if compiled:
        warm_checker(checker, cache=cache, telemetry=telemetry)
    return checker


def precompile(
    registry,
    cache: AutomatonCache,
    hierarchy=None,
    max_silent_states: int = 50_000,
    max_states: int = 50_000,
    force: bool = False,
    telemetry=None,
) -> dict[str, tuple[PurposeAutomaton, Optional[Path]] | Exception]:
    """Eagerly compile every registered purpose into *cache*.

    Maps each purpose, in sorted order, to its automaton and the path
    it was saved to — ``None`` when a valid artifact already in the
    cache was loaded instead (never with *force*).  A purpose whose
    compile fails — say, a non-well-founded process the encoder
    rejects — maps to the exception instead of raising it: that
    purpose is contained per case at replay time, and every other
    purpose still gets its artifact.
    """
    outcomes: dict[str, tuple[PurposeAutomaton, Optional[Path]] | Exception] = {}
    for purpose in sorted(registry.purposes()):
        try:
            encoded = registry.encoded_for(purpose)
            fingerprint = artifact_key(
                encoded, Observables.from_encoded(encoded, hierarchy)
            )
            automaton = None if force else cache.load(purpose, fingerprint)
            saved = None
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
                    max_states=max_states,
                    telemetry=telemetry,
                )
                saved = cache.save(automaton)
            outcomes[purpose] = (automaton, saved)
        except Exception as error:
            outcomes[purpose] = error
    return outcomes


__all__ = [
    "ERR_KEY",
    "FINGERPRINT_VERSION",
    "REJECTED_STATE",
    "ArtifactError",
    "AutomatonCache",
    "AutomatonExplosionError",
    "AutomatonUnavailableError",
    "CompileError",
    "CompiledResult",
    "CompiledSession",
    "EntryKeyer",
    "PurposeAutomaton",
    "TABLE_FORMAT_NAME",
    "TABLE_FORMAT_VERSION",
    "Transition",
    "UNKNOWN",
    "artifact_key",
    "build_checker",
    "compile_automaton",
    "decode_table",
    "encode_table",
    "fingerprint_encoded",
    "fingerprint_process",
    "frontier_key",
    "load_table",
    "precompile",
    "save_table",
    "table_path",
    "term_digest",
    "warm_checker",
]
