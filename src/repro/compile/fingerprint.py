"""Stable content fingerprints for compiled purpose automata.

A persisted automaton is only valid for exactly the process semantics it
was compiled from.  Three inputs determine those semantics:

* the **BPMN structure** — elements, flows, error flows (the COWS term
  is a pure function of them, so hashing the serialized process document
  covers the term as well);
* the **role hierarchy** — it decides which log entries match which
  observable labels (Algorithm 1, line 5), and therefore which compiled
  transitions exist;
* the **encoding options** — today the set of silent tasks (Section 7's
  unobservable activities), which changes the observable vocabulary.

The fingerprint is a SHA-256 over a canonical JSON rendering of all
three plus a schema version, so *any* change — a renamed task, an added
specialization, a new silent task, or a change to this very scheme —
invalidates every cached artifact keyed by it.  The digest is stable
across processes and machines (no ``PYTHONHASHSEED`` dependence).
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Optional

from repro.bpmn.encode import EncodedProcess
from repro.bpmn.model import Process
from repro.bpmn.serialize import process_to_dict
from repro.policy.hierarchy import RoleHierarchy

#: Bump on any change to the fingerprint recipe *or* to the semantics of
#: the compiled transition relation (entry-key scheme, step function).
FINGERPRINT_VERSION = 1


def _canonical(document: object) -> bytes:
    """A byte-stable rendering: sorted keys, no whitespace drift."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")


def fingerprint_process(
    process: Process,
    hierarchy: Optional[RoleHierarchy] = None,
    silent_tasks: Iterable[str] = (),
) -> str:
    """The hex fingerprint keying cached artifacts of *process*."""
    payload = {
        "version": FINGERPRINT_VERSION,
        "process": process_to_dict(process),
        "hierarchy": (
            hierarchy.to_parent_map() if hierarchy is not None else {}
        ),
        "silent_tasks": sorted(silent_tasks),
    }
    return hashlib.sha256(_canonical(payload)).hexdigest()


def fingerprint_encoded(
    encoded: EncodedProcess,
    hierarchy: Optional[RoleHierarchy] = None,
    silent_tasks: Iterable[str] = (),
) -> str:
    """The fingerprint of an already-encoded process (same recipe)."""
    return fingerprint_process(
        encoded.process, hierarchy, silent_tasks=silent_tasks
    )


def artifact_key(encoded: EncodedProcess, observables) -> str:
    """The one artifact key: *encoded* under the hierarchy and silent
    tasks of the replay's :class:`~repro.core.observables.Observables`."""
    return fingerprint_encoded(
        encoded, observables.hierarchy, observables.silent_tasks
    )


def term_digest(term: object) -> str:
    """A stable digest of one COWS term (by its canonical textual form).

    ``str`` on terms is deterministic — the encoder mints no fresh
    names — so this digest identifies a state across processes, which
    is what lets a warm artifact be shared by parallel workers.
    """
    return hashlib.sha256(str(term).encode("utf-8")).hexdigest()


def frontier_key(pairs: Iterable[tuple[str, tuple[tuple[str, str], ...]]]) -> str:
    """The identity key of one automaton state.

    *pairs* lists ``(term_digest, sorted_active)`` per configuration, in
    frontier order.  Order is part of the identity: Algorithm 1's step
    outcome (event ordering, frontier ordering) depends on it, and the
    compiled replay promises bit-identical steps — two orderings of the
    same configuration set are therefore distinct compiled states.
    """
    body = "\n".join(
        f"{digest}|{';'.join(f'{role}.{task}' for role, task in active)}"
        for digest, active in pairs
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()
