"""Structured audit logging: JSON-lines events over stdlib ``logging``.

Every telemetry event of the purpose-control pipeline is one JSON object
per line, with a **stable vocabulary** so downstream collectors (and the
regulator-facing transparency tooling Kiesel & Grünewald call for) can
key on event names without parsing prose:

==================  =====================================================
event               emitted when
==================  =====================================================
``case.audited``    the auditor finished one case (fields: case, purpose,
                    outcome, entries, infringements, duration_s)
``entry.replayed``  Algorithm 1 replayed one log entry (fields: index,
                    role, task, status, outcome, frontier, duration_s)
``weaknext.computed``  the WeakNext engine computed (not cache-hit) one
                    frontier (fields: silent_states, results, duration_s)
``frontier.grown``  a replay step increased the configuration frontier
                    (fields: index, size, previous)
``infringement.raised``  any infringement was recorded (fields: case,
                    kind, detail)
``monitor.sweep``   the online monitor swept temporal constraints
                    (fields: checked, violations, duration_s)
``worker.init``     a parallel-audit worker initialized its checkers
                    (fields: pid, purposes)
``case.failed``     a case's replay was contained instead of aborting the
                    run (fields: case, kind, error, error_type, retries)
``worker.lost``     a worker process died and its in-flight jobs were
                    requeued (fields: lost_jobs, attempt)
``entry.quarantined``  a raw record failed validation at ingestion and
                    went to the dead-letter collection (fields: source,
                    position, reason)
``automaton.compiled``  a purpose automaton was (re)compiled (fields:
                    purpose, states, transitions, symbols, pool,
                    duration_s)
``automaton.checkpoint``  a batch replay grew an automaton and wrote it
                    back to its artifact when it ended (fields: purpose,
                    states, transitions, path)
``compile.artifact_invalid``  a persisted automaton artifact was
                    rejected (version/fingerprint mismatch, truncation)
                    and will be recompiled transparently (fields: path,
                    reason, detail)
``lint.run``        the static verifier linted a set of processes
                    (fields: processes, errors, warnings, infos,
                    duration_s)
``lint.preflight_unsound``  the auditor's preflight found a purpose
                    statically unsound and quarantined its cases
                    (fields: purpose, process, codes)
``serve.started``   the streaming audit service began accepting entry
                    streams (fields: host, port, http_port)
``serve.client``    a client connected to or disconnected from the
                    streaming service (fields: peer, phase, entries)
``serve.flush``     buffered entries were flushed to the audit store in
                    one batch (fields: entries, duration_s)
``serve.drained``   the service drained: intake stopped, store flushed
                    (fields: entries, cases)
``case.quarantined``  the streaming service took one case out of
                    rotation (fields: case, kind, detail)
``serve.wal_commit``  buffered write-ahead-log records were fsynced — the
                    durability barrier behind the ``sync`` op (fields:
                    records)
``serve.wal_retired``  WAL segments wholly covered by a committed store
                    flush were deleted (fields: upto, segments)
``serve.tick_failed``  the flush timer's store flush or WAL fsync raised;
                    the timer keeps running and the next tick retries
                    (fields: error)
``serve.recovered``  a service with a WAL resumed in-flight state from
                    the store + WAL delta at start; only when there was
                    something to replay (fields: store_entries,
                    wal_records, replayed, duplicates, cases,
                    torn_segments, store_intact, duration_s)
==================  =====================================================

The logger is plain :mod:`logging` under the hood (logger name
``repro.obs``), so applications can route events through their existing
handler tree; :func:`json_lines_logger` is the batteries-included
constructor writing straight to a stream or file.  Like the metrics
registry, the disabled default (:data:`NULL_EVENTS`) is a shared no-op.
"""

from __future__ import annotations

import io
import itertools
import json
import logging
import time
from pathlib import Path
from typing import Optional, TextIO

# -- the event vocabulary ----------------------------------------------------
CASE_AUDITED = "case.audited"
ENTRY_REPLAYED = "entry.replayed"
WEAKNEXT_COMPUTED = "weaknext.computed"
FRONTIER_GROWN = "frontier.grown"
INFRINGEMENT_RAISED = "infringement.raised"
MONITOR_SWEEP = "monitor.sweep"
WORKER_INIT = "worker.init"
CASE_FAILED = "case.failed"
WORKER_LOST = "worker.lost"
ENTRY_QUARANTINED = "entry.quarantined"
AUTOMATON_COMPILED = "automaton.compiled"
AUTOMATON_CHECKPOINT = "automaton.checkpoint"
ARTIFACT_INVALID = "compile.artifact_invalid"
LINT_RUN = "lint.run"
PREFLIGHT_UNSOUND = "lint.preflight_unsound"
SERVE_STARTED = "serve.started"
SERVE_DRAINED = "serve.drained"
SERVE_FLUSH = "serve.flush"
SERVE_CLIENT = "serve.client"
CASE_QUARANTINED = "case.quarantined"
SERVE_WAL_COMMIT = "serve.wal_commit"
SERVE_WAL_RETIRED = "serve.wal_retired"
SERVE_TICK_FAILED = "serve.tick_failed"
SERVE_RECOVERED = "serve.recovered"
CONTROL_CONFIG_LOADED = "control.config_loaded"
CONTROL_REQUEUE = "control.requeue"
CONTROL_DISMISS = "control.dismiss"
CONTROL_REAUDIT = "control.reaudit"

EVENT_VOCABULARY = frozenset(
    {
        CASE_AUDITED,
        ENTRY_REPLAYED,
        WEAKNEXT_COMPUTED,
        FRONTIER_GROWN,
        INFRINGEMENT_RAISED,
        MONITOR_SWEEP,
        WORKER_INIT,
        CASE_FAILED,
        WORKER_LOST,
        ENTRY_QUARANTINED,
        AUTOMATON_COMPILED,
        AUTOMATON_CHECKPOINT,
        ARTIFACT_INVALID,
        LINT_RUN,
        PREFLIGHT_UNSOUND,
        SERVE_STARTED,
        SERVE_DRAINED,
        SERVE_FLUSH,
        SERVE_CLIENT,
        CASE_QUARANTINED,
        SERVE_WAL_COMMIT,
        SERVE_WAL_RETIRED,
        SERVE_TICK_FAILED,
        SERVE_RECOVERED,
        CONTROL_CONFIG_LOADED,
        CONTROL_REQUEUE,
        CONTROL_DISMISS,
        CONTROL_REAUDIT,
    }
)

LOGGER_NAME = "repro.obs"


class JsonLinesFormatter(logging.Formatter):
    """Formats a record carrying ``record.event``/``record.fields`` as JSON."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict = {
            "ts": round(record.created, 6),
            "event": getattr(record, "event", record.getMessage()),
        }
        payload.update(getattr(record, "fields", {}))
        return json.dumps(payload, default=str, separators=(",", ":"))


class EventLogger:
    """Emits vocabulary events as structured records on a stdlib logger."""

    enabled = True

    def __init__(self, logger: Optional[logging.Logger] = None):
        self._logger = logger or logging.getLogger(LOGGER_NAME)

    @property
    def logger(self) -> logging.Logger:
        return self._logger

    def emit(self, event: str, **fields) -> None:
        """Log one structured event (unknown names are allowed but the
        stable vocabulary above is what collectors should rely on)."""
        self._logger.info(
            event, extra={"event": event, "fields": fields}
        )


class NullEventLogger:
    """The disabled default: ``emit`` is an empty method."""

    enabled = False
    logger = None

    def emit(self, event: str, **fields) -> None:
        pass


NULL_EVENTS = NullEventLogger()


def json_lines_logger(
    destination: "TextIO | str | Path",
    *,
    name: str = LOGGER_NAME,
) -> EventLogger:
    """An :class:`EventLogger` writing JSON lines to a stream or file path.

    The underlying stdlib logger is configured with exactly one handler
    for *destination* (propagation is disabled so events do not leak into
    the application's root handlers twice).
    """
    if isinstance(destination, (str, Path)):
        handler: logging.Handler = logging.FileHandler(
            str(destination), encoding="utf-8"
        )
    else:
        handler = logging.StreamHandler(destination)
    handler.setFormatter(JsonLinesFormatter())
    logger = logging.getLogger(name)
    logger.setLevel(logging.INFO)
    logger.propagate = False
    for existing in list(logger.handlers):
        logger.removeHandler(existing)
        existing.close()
    logger.addHandler(handler)
    return EventLogger(logger)


class MemoryEventLog:
    """An in-memory JSONL sink, mainly for tests and ``repro stats``."""

    _instances = itertools.count()

    def __init__(self, name: Optional[str] = None):
        # Unique logger name per instance: stdlib loggers are process-wide
        # singletons, and two sinks sharing one would steal each other's
        # handler.
        if name is None:
            name = f"{LOGGER_NAME}.memory{next(self._instances)}"
        self._buffer = io.StringIO()
        self.events = json_lines_logger(self._buffer, name=name)

    def records(self) -> list[dict]:
        """Every emitted event, parsed back from its JSON line."""
        return [
            json.loads(line)
            for line in self._buffer.getvalue().splitlines()
            if line.strip()
        ]

    def named(self, event: str) -> list[dict]:
        return [r for r in self.records() if r.get("event") == event]


def utcnow_s() -> float:
    """Seconds since the epoch (separated out for test monkeypatching)."""
    return time.time()
