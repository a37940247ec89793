"""Where the traced runs record spans: the program's public functions.

The benchmark measures the program unmodified.  :func:`install` replaces
each target with a :class:`spans.Recorder` wrapper on its defining module
or class *and* on every already-imported ``repro`` module that bound the
same function by name (``from repro.audit.xes import import_xes``), so
calls through either path are recorded.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading

from spans import Recorder, clock


def _replayed_entries(args, kwargs, result):
    """``replay_with_deadline(checker, entries, ...)`` -> entries replayed."""
    entries = args[1] if len(args) > 1 else kwargs["entries"]
    return [("core.replay_entries", len(entries))]


def _endpoint(args, kwargs):
    """``ControlPlane.handle(self, method, path, ...)`` -> per-endpoint name."""
    path = args[2] if len(args) > 2 else kwargs.get("path", "")
    parts = [part for part in path.split("/") if part]
    return "control.api.handle_s." + (parts[2] if len(parts) > 2 else "root")


def _http_path(args, kwargs):
    """``AuditService._http_body(self, path)`` -> per-endpoint name."""
    path = args[1] if len(args) > 1 else kwargs.get("path", "")
    return "control.api.handle_s." + (path.strip("/").replace(".", "_") or "root")


#: (module, function or Class.method, metric name, counts)
TARGETS = [
    ("repro.audit.model", "AuditTrail.cases", "audit.model.project_s", None),
    ("repro.audit.model", "AuditTrail.for_case", "audit.model.project_s", None),
    ("repro.audit.xes", "import_xes", "audit.xes.import_s", None),
    ("repro.core.auditor", "AuditReport.summary", "cli.report_s", None),
    ("repro.core.auditor", "PurposeControlAuditor.audit", "core.audit_s", None),
    ("repro.core.auditor", "PurposeControlAuditor.audit_case",
     "core.audit_case_s", None),
    ("repro.core.resilience", "replay_with_deadline", "core.replay_s",
     _replayed_entries),
    ("repro.core.monitor", "OnlineMonitor.observe", "core.monitor.observe_s", None),
    ("repro.bpmn.encode", "encode", "bpmn.encode_s", None),
    ("repro.compile.automaton", "compile_automaton",
     "compile.automaton_build_s", None),
    ("repro.compile.table", "compile_table", "compile.table_build_s",
     lambda args, kwargs, table: [("compile.states", table.n_states)]),
    ("repro.compile.fingerprint", "fingerprint_encoded",
     "compile.fingerprint_s", None),
    ("repro.compile.fingerprint", "fingerprint_process",
     "compile.fingerprint_s", None),
    ("repro.compile.artifact", "load_artifact", "compile.artifact_load_s", None),
    ("repro.compile.table", "load_table", "compile.artifact_load_s", None),
    ("repro.compile.artifact", "save_artifact", "compile.artifact_save_s", None),
    ("repro.compile.table", "save_table", "compile.artifact_save_s", None),
    ("repro.serve.protocol", "decode_message", "serve.protocol.decode_s", None),
    ("repro.serve.protocol", "entry_from_message", "serve.protocol.decode_s", None),
    ("repro.serve.core", "ShardRouter.results", "serve.core.results_s", None),
    ("repro.serve.wal", "WalWriter.append", "serve.wal.append_s", None),
    ("repro.serve.wal", "WalWriter.commit", "serve.wal.commit_s",
     lambda args, kwargs, records: [("serve.wal.commits", 1)] if records else []),
    ("repro.audit.store", "AuditStore.append_many", "audit.store.append_many_s",
     lambda args, kwargs, rows: [("audit.store.batches", 1),
                                 ("audit.store.rows", rows)]),
    ("repro.audit.store", "AuditStore.verify_integrity", "audit.store.verify_s", None),
    ("repro.audit.store", "AuditStore.is_intact", "audit.store.verify_s", None),
    ("repro.control.api", "ControlPlane.handle", _endpoint, None),
    ("repro.serve.service", "AuditService._http_body", _http_path, None),
]


class _QueueWait:
    """``serve.core.queue_wait_s``: from ``ShardRouter.submit`` returning
    to ``OnlineMonitor.observe`` starting, for the same entry object."""

    def __init__(self, recorder: Recorder):
        self._recorder = recorder
        self._lock = threading.Lock()
        self._submitted: dict[int, float] = {}
        self._observed: set[int] = set()

    def submit(self, fn):
        @functools.wraps(fn)
        def wrapper(router, entry, *args, **kwargs):
            admission = fn(router, entry, *args, **kwargs)
            now = clock()
            key = id(entry)
            with self._lock:
                early = key in self._observed  # the shard beat us to it
                if early:
                    self._observed.discard(key)
                else:
                    self._submitted[key] = now
            if early:
                self._recorder.sample("serve.core.queue_wait_s", 0.0)
            return admission

        return wrapper

    def observe(self, fn):
        @functools.wraps(fn)
        def wrapper(monitor, entry, *args, **kwargs):
            now = clock()
            key = id(entry)
            with self._lock:
                submitted = self._submitted.pop(key, None)
                if submitted is None:
                    self._observed.add(key)
            if submitted is not None:
                self._recorder.sample("serve.core.queue_wait_s", now - submitted)
            return fn(monitor, entry, *args, **kwargs)

        return wrapper


def _barrier(recorder: Recorder, fn):
    """``serve.core.barrier_s``: from posting a barrier to its callback."""

    @functools.wraps(fn)
    def wrapper(router, callback, *args, **kwargs):
        posted = clock()

        def timed():
            recorder.sample("serve.core.barrier_s", clock() - posted)
            return callback()

        return fn(router, timed, *args, **kwargs)

    return wrapper


def _replace(original, wrapped) -> None:
    """Rebind every ``repro`` module attribute holding *original*."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapped)


def _patch(module_name: str, target: str, make) -> None:
    module = importlib.import_module(module_name)
    if "." in target:
        class_name, method = target.split(".")
        owner = getattr(module, class_name)
        setattr(owner, method, make(owner.__dict__[method]))
    else:
        original = getattr(module, target)
        _replace(original, make(original))


#: Modules imported before patching, so their by-name bindings exist.
PRELOAD = (
    "repro.cli",
    "repro.compile",
    "repro.control",
    "repro.core.auditor",
    "repro.core.monitor",
    "repro.policy.registry",
    "repro.serve",
)


def preload() -> None:
    """Import the program (timed apart from :func:`install`)."""
    for module_name in PRELOAD:
        importlib.import_module(module_name)


def install(recorder: Recorder) -> None:
    """Wrap every target; call once, after :func:`preload`."""
    for module_name, target, name, counts in TARGETS:
        _patch(
            module_name,
            target,
            lambda fn, name=name, counts=counts: recorder.wrap(fn, name, counts),
        )
    queue_wait = _QueueWait(recorder)
    _patch(
        "repro.serve.core",
        "ShardRouter.submit",
        lambda fn: recorder.wrap(queue_wait.submit(fn), "serve.core.submit_s"),
    )
    # Around the observe span, so the wait ends where the replay starts.
    _patch("repro.core.monitor", "OnlineMonitor.observe", queue_wait.observe)
    _patch(
        "repro.serve.core", "ShardRouter.barrier", lambda fn: _barrier(recorder, fn)
    )
