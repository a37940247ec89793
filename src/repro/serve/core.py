"""The streaming-audit engine behind ``repro serve``.

The :class:`ShardRouter` is the socket-free core of the audit daemon.
It owns one :class:`~repro.core.monitor.OnlineMonitor` and, with a
write-ahead log, one log.  Algorithm 1 is stateful *per case* and cases
are independent (Section 7's scalability argument), so the engine needs
no thread of its own: :meth:`ShardRouter.submit` replays the entry it
admits before it returns, on the caller's thread — for ``repro serve``,
the event loop — so entries are replayed, logged and stored in the
order they were accepted.

Everything the asyncio service (:mod:`repro.serve.service`) does goes
through this class, and the test suites drive it directly where a
socket would only add noise (the hypothesis stream-equivalence
property runs thousands of examples against it).

Responsibilities:

* **warm-up** — :meth:`start` builds every registered purpose's
  checker and its purpose automaton before the first entry: compiled
  into the :class:`~repro.compile.AutomatonCache` of ``automaton_dir``
  when one is configured, else an empty table that the stream's first
  entries fill;
* **durable ingest** — every accepted entry is buffered and flushed to
  an :class:`~repro.audit.store.AuditStore` in batched
  ``append_many`` transactions by a dedicated writer thread (SQLite
  connections are single-threaded); a start on a durable store
  resumes it byte-identically before it accepts anything;
* **crash-safe ingest** — with a ``wal_dir`` configured (it needs a
  durable store), every entry is appended to the write-ahead log
  (:mod:`repro.serve.wal`) *before* :meth:`submit` accepts it; WAL
  segments are retired only once the batched store flush covering them
  commits, so after a ``kill -9`` the store + WAL tail is exactly the
  set of accepted entries;
* **idempotent resume** — clients may number each case's entries
  (``seq``); :meth:`submit` dedupes re-sent entries by per-case
  high-water mark, so a client that reconnects and replays its
  unacknowledged tail never double-counts an entry;
* **failure containment** — the engine contains every failure to its
  case, and meters cumulative processing time per case: a case
  over ``case_timeout_s`` — between entries, or inside one entry's
  WeakNext exploration — is contained as ``OutcomeKind.TIMEOUT`` and
  quarantined, so no case holds up the stream for long;
* **drain** — stop intake, flush the store, and report final per-case
  verdicts.  Drain writes no automaton artifact: a start with an
  ``automaton_dir`` recompiles every purpose, one without starts its
  tables empty.

One lock, the admission lock, orders everything that touches the monitor:
admission and replay, requeue, and the readers the control plane calls
from other threads (each record is read under it, never across a
``yield``).
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from repro.audit.model import LogEntry
from repro.audit.store import AuditStore
from repro.core.monitor import FAILURE_KINDS, TERMINAL_STATES, OnlineMonitor
from repro.core.resilience import OutcomeKind, Quarantine
from repro.errors import MalformedEntryError, ReproError
from repro.obs import (
    CASE_QUARANTINED,
    NULL_TELEMETRY,
    SERVE_DRAINED,
    SERVE_FLUSH,
    SERVE_RECOVERED,
    SERVE_WAL_COMMIT,
    SERVE_WAL_RETIRED,
    Telemetry,
    TraceContext,
    parse_traceparent,
)
from repro.policy.hierarchy import RoleHierarchy
from repro.policy.registry import ProcessRegistry
from repro.serve.protocol import EV_VERDICT, require_fields
from repro.serve.recovery import RecoveryReport, WalDelta, wal_delta
from repro.serve.wal import WalError, WalWriter, remove_segments

#: A callback receiving protocol-shaped server events for one client.
#: Called on the thread that submitted the entry, under the admission
#: lock (the asyncio service submits on its event loop).
Subscriber = Callable[[dict], None]

#: Seconds a refused submission waits before it is sent again: the hint
#: carried by ``busy`` refusals.
RETRY_AFTER_S = 0.05

#: How often a wait on the store writer checks that it is still alive.
_WRITER_POLL_S = 0.25


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs for the audit daemon (see ``docs/serving.md``).

    ``flush_interval_s`` is enforced by the service's timer task; the
    router itself flushes whenever the buffer reaches
    ``flush_max_batch`` and once on drain, so a router used without the
    asyncio wrapper still persists everything.

    ``case_timeout_s`` is each case's cumulative processing budget.  The
    case's engine (:class:`~repro.core.monitor.OnlineMonitor`) meters
    it: every entry but the one that opens the case is charged, the
    WeakNext exploration of a charged entry stops at what is left of
    the budget, a requeue replays under a fresh meter, and a case over
    budget is contained as ``timeout`` and quarantined.

    A durable ``store_path`` (a file, not ``":memory:"``) is what every
    start resumes.  ``wal_dir`` puts a write-ahead log in front of it,
    so an entry is durable from its ``sync`` on rather than from its
    store flush; the router refuses one without a durable store.  The
    WAL segments keep their own defaults
    (:class:`~repro.serve.wal.WalWriter`).

    Every case replays through its purpose automaton.  ``automaton_dir``
    compiles each purpose into that directory at start, so the first
    entry is answered from a complete table; without it the tables
    start empty and grow from the stream.

    Construction refuses numbers no daemon can run with (``ValueError``),
    wherever they came from: flags, config budgets or library callers.
    """

    store_path: Optional[str] = None
    flush_interval_s: float = 0.5
    flush_max_batch: int = 256
    case_timeout_s: Optional[float] = None  # cumulative per-case budget
    automaton_dir: Optional[str] = None
    wal_dir: Optional[str] = None  # the write-ahead ingest log

    def __post_init__(self) -> None:
        # Every test is False for NaN, so NaN is refused too.
        for names, wording, valid in (
            (("flush_max_batch",), "at least 1",
             lambda value: value >= 1),
            (("flush_interval_s",), "positive", lambda value: value > 0),
            (("case_timeout_s",), "positive when set",
             lambda value: value is None or value > 0),
        ):
            for name in names:
                if not valid(getattr(self, name)):
                    raise ValueError(
                        f"{name} must be {wording}, got {getattr(self, name)!r}"
                    )


@dataclass(frozen=True)
class Admission:
    """What :meth:`ShardRouter.submit` decided about one entry.

    Exactly one of these holds per call: ``accepted`` (the entry is in
    the WAL — if configured — and replayed), ``duplicate`` (an
    idempotent re-send, already accepted earlier), or ``busy`` (the
    entry was refused — a sequence gap, or a dead store writer — and
    must be re-sent; ``retry_after_s`` is the server's back-off hint).
    """

    accepted: bool
    case_seq: int = 0  # 1-based position of the entry within its case
    duplicate: bool = False
    busy: bool = False
    retry_after_s: float = 0.0
    reason: str = ""


@dataclass(frozen=True)
class RequeueResult:
    """What :meth:`ShardRouter.requeue_case` decided about one case.

    ``accepted`` means the engine replayed the case's full entry
    history through a fresh session under a fresh budget meter;
    ``state`` and ``replayed_entries`` describe where the replay landed.
    A refusal (unknown / not-quarantined case, or a draining router)
    sets ``reason``.
    """

    case: str
    accepted: bool
    reason: str = ""
    state: Optional[str] = None
    replayed_entries: int = 0


@dataclass(frozen=True)
class DrainReport:
    """What :meth:`ShardRouter.drain` accomplished."""

    entries_received: int
    entries_written: int
    cases: int
    quarantined_cases: int
    #: None when no store is configured; False when its writer died.
    store_intact: Optional[bool]
    final_states: dict[str, str] = field(default_factory=dict)


class _StoreWriter(threading.Thread):
    """The one thread that owns the SQLite connection.

    Batches arrive on an unbounded queue; each is committed in a single
    ``append_many`` transaction.  If a batch turns out malformed the
    writer retries entry-by-entry so one bad record costs one record,
    not the flush (the rejects land in the router's dead-letter
    quarantine).  Once a batch commits, the WAL segments it covers are
    retired (``_on_batch_durable``) — the long-term record owns those
    entries now.  A ``("sync", event)`` item is a durability barrier:
    the event fires only after every batch queued before it committed.

    Any other error (a full disk, a locked or unreadable file) ends the
    thread: it marks the store not intact and records the error on the
    router, which refuses new entries from then on.
    """

    def __init__(self, path: str, router: "ShardRouter"):
        super().__init__(name="repro-serve-store", daemon=True)
        self._path = path
        self._router = router
        #: ``("batch", entries, contexts, wal floor)`` /
        #: ``("sync", threading.Event)`` items; ``None`` stops.
        self.queue: "queue.Queue[Optional[tuple]]" = queue.Queue()
        self.written = 0
        self.intact: Optional[bool] = None

    def run(self) -> None:
        try:
            self._run()
        except BaseException as error:
            self.intact = False
            self._router._store_error = f"{type(error).__name__}: {error}"
            raise

    def _run(self) -> None:
        store = AuditStore(self._path)
        tracer = self._router._tel.tracer
        try:
            while True:
                item = self.queue.get()
                if item is None:
                    self.intact = store.is_intact()
                    return
                if item[0] == "sync":
                    item[1].set()
                    continue
                _, batch, contexts, floor = item
                started = time.perf_counter()
                if tracer.enabled and contexts:
                    # A single-case batch joins that case's trace; a
                    # mixed batch is its own trace *linking* every case
                    # it persisted (one flush serves many traces).
                    parent = contexts[0] if len(contexts) == 1 else None
                    links = contexts if len(contexts) > 1 else ()
                    with tracer.span(
                        "store.flush",
                        parent=parent,
                        links=links,
                        entries=len(batch),
                    ):
                        self._commit(store, batch)
                else:
                    self._commit(store, batch)
                self._router._on_batch_durable(floor)
                duration = time.perf_counter() - started
                self._router._m_flushes.inc()
                self._router._m_flush_seconds.observe(duration)
                self._router._tel.events.emit(
                    SERVE_FLUSH,
                    entries=len(batch),
                    written_total=self.written,
                    duration_s=round(duration, 6),
                )
        finally:
            store.close()

    def _commit(self, store: AuditStore, batch: list[LogEntry]) -> None:
        try:
            self.written += store.append_many(batch)
        except MalformedEntryError:
            for offset, entry in enumerate(batch):
                try:
                    store.append(entry)
                    self.written += 1
                except MalformedEntryError as error:
                    self._router.dead_letters.add(
                        source="serve",
                        reason=str(error),
                        position=offset,
                        raw=str(entry),
                    )


class ShardRouter:
    """The audit engine of one entry stream: admission, replay on one
    monitor, the write-ahead log and the store writer."""

    def __init__(
        self,
        registry: ProcessRegistry,
        hierarchy: Optional[RoleHierarchy] = None,
        config: Optional[ServeConfig] = None,
        telemetry: Optional[Telemetry] = None,
        checker_wrapper=None,
        wal_fault_hook: Optional[Callable[[str], None]] = None,
    ):
        self.config = config or ServeConfig()
        if self.config.wal_dir is not None and self._durable_store_path() is None:
            raise ValueError(
                "wal_dir needs a durable store_path: the write-ahead log "
                "only holds what the store has not committed yet"
            )
        self._registry = registry
        self._hierarchy = hierarchy
        self._checker_wrapper = checker_wrapper
        self._wal_fault_hook = wal_fault_hook
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel = tel
        self.dead_letters = Quarantine(telemetry=tel)

        self._monitor: Optional[OnlineMonitor] = None
        self._writer: Optional[_StoreWriter] = None
        #: Why the store writer died (None while it lives): from then
        #: on no thread can make an entry durable, so none is accepted.
        self._store_error: Optional[str] = None
        self._wal: Optional[WalWriter] = None
        #: Entries awaiting the next store flush, in acceptance order.
        self._pending: list[LogEntry] = []
        #: The WAL seq of the last entry pending: once the batch that
        #: carries it commits, every record at or below it is stored.
        self._pending_wal_seq = 0
        self._pending_lock = threading.Lock()
        # The admission lock: per-case sequence bookkeeping, the WAL
        # append and the replay happen as one atomic step, and every
        # other read or write of a monitor or of the quarantine takes it.
        self._ingest_lock = threading.Lock()
        self._case_seq: Counter[str] = Counter()  # case -> accepted entries
        self._quarantined: dict[str, OutcomeKind] = {}
        #: Cases an operator dismissed; never filed again (start() seeds
        #: it from the durable store's control log).
        self._dismissed: set[str] = set()
        self._accepting = False
        self._drained = False
        self._received = 0
        self._busy_total = 0
        self._duplicate_total = 0
        #: Set by :meth:`start` when it resumed a durable record.
        self.recovery_report = None
        # case id -> the root TraceContext of its (one) trace.  The
        # first traced ingest of a case mints it; every later span of
        # the case — ingest, replay, verdict, store flush — joins it.
        self._case_traces: dict[str, TraceContext] = {}
        self._trace_lock = threading.Lock()

        # Per-entry instruments are bound to their (label-less) series
        # once here, so the ingest path skips label resolution per inc.
        self._m_entries = tel.registry.counter(
            "serve_entries_total", "log entries accepted by the service"
        ).series()
        self._m_ingest = tel.registry.histogram(
            "serve_ingest_seconds", "replay time per entry"
        )
        self._m_ingest_fast = self._m_ingest.series()
        self._m_flushes = tel.registry.counter(
            "serve_flushes_total", "store flush transactions committed"
        )
        self._m_flush_seconds = tel.registry.histogram(
            "serve_flush_seconds", "wall time per store flush"
        )
        self._m_quarantined = tel.registry.counter(
            "serve_quarantined_cases_total",
            "cases taken out of rotation by the service, by kind",
        )
        self._m_busy = tel.registry.counter(
            "serve_busy_total",
            "entries refused with a busy/retry_after response",
        )
        self._m_duplicates = tel.registry.counter(
            "serve_duplicate_entries_total",
            "idempotent re-sends deduplicated by per-case sequence",
        )
        self._m_wal_records = tel.registry.counter(
            "serve_wal_records_total",
            "entries appended to the write-ahead ingest log",
        ).series()
        self._m_wal_unflushed_records = tel.registry.gauge(
            "serve_wal_unflushed_records",
            "WAL records buffered but not yet fsynced",
        )
        self._m_wal_unflushed_bytes = tel.registry.gauge(
            "serve_wal_unflushed_bytes",
            "WAL bytes buffered but not yet fsynced",
        )
        self._m_wal_segments = tel.registry.gauge(
            "serve_wal_segments", "live WAL segment files"
        )
        self._m_recovered = tel.registry.counter(
            "serve_recovered_entries_total",
            "entries replayed into monitors during recovery, by source",
        )
        self._m_requeues = tel.registry.counter(
            "serve_requeues_total",
            "quarantined-case requeue attempts, by outcome",
        )
        self._m_dismissals = tel.registry.counter(
            "serve_dismissals_total",
            "quarantined cases dismissed by an operator",
        )

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Warm the engine and resume the durable record.

        On a durable store this returns only once every stored row,
        and everything the write-ahead log holds beyond them, is
        replayed into the monitor in acceptance order, the per-case
        sequence marks are restored, and the log's tail is committed to
        the store.  Then the old log's segments are removed and a fresh
        log opens.  A tampered store is refused before anything is
        replayed.
        """
        if self._monitor is not None:
            raise ReproError("the router is already started")
        automaton_dir = self.config.automaton_dir
        if automaton_dir is not None:
            from repro.compile import AutomatonCache, precompile

            # Every purpose is compiled into the directory once, here,
            # so the monitor loads a fully explored table instead of
            # racing the live stream through WeakNext.  A purpose that
            # defeats compilation is contained per case at observe time.
            precompile(
                self._registry,
                AutomatonCache(automaton_dir, telemetry=self._tel),
                hierarchy=self._hierarchy,
                force=True,
                telemetry=self._tel,
            )
        started = time.perf_counter()
        self._monitor = OnlineMonitor(
            self._registry,
            hierarchy=self._hierarchy,
            telemetry=self._tel,
            automaton_dir=automaton_dir,
            checker_wrapper=self._checker_wrapper,
            case_timeout_s=self.config.case_timeout_s,
        )
        # Every checker is encoded and its table loaded (or started
        # empty) now, so no streamed entry waits on an encoding or an
        # artifact load.  Without an automaton_dir the first entries
        # still derive their table cells.
        self._monitor.prewarm()
        store_path = self._durable_store_path()
        stored = 0
        if store_path is not None and os.path.exists(store_path):
            with AuditStore(store_path) as store:
                if not store.is_intact():
                    raise ReproError(
                        f"audit store {store_path} failed its hash-chain "
                        f"check; refusing to resume on top of a tampered "
                        f"record"
                    )
                # A dismissal outlives the process: the containments
                # that the resume replays do not file the case again.
                self._dismissed = store.dismissed_cases()
                for entry in store.iter_entries():
                    self._replay(entry)
                    self._case_seq[entry.case] += 1
                    stored += 1
        delta = WalDelta()
        wal_dir = self.config.wal_dir
        if wal_dir is not None:
            delta = wal_delta(wal_dir, self._case_seq)
            # The log continues the stored prefix; only its tail is
            # staged for the store, in the log's own (acceptance) order.
            for entry in delta.entries:
                self._replay(entry)
                self._case_seq[entry.case] += 1
            self._received += len(delta.entries)
            self._pending.extend(delta.entries)
        if self.config.store_path is not None:
            self._writer = _StoreWriter(self.config.store_path, self)
            self._writer.start()
        if wal_dir is not None:
            if delta.entries:
                self.flush()
                if not self._writer_sync():
                    self.drain()
                    raise ReproError(
                        "the audit store writer died before the resumed "
                        "write-ahead log delta was committed; the log is "
                        "kept for the next start"
                    )
            # The store owns every record now: the old log goes, older
            # daemons' segment names included, and a fresh one opens.
            remove_segments(wal_dir)
            self._wal = WalWriter(wal_dir, fault_hook=self._wal_fault_hook)
        if stored or delta.records:
            self._report_resume(stored, delta, started)
        self._accepting = True

    def _report_resume(
        self, stored: int, delta: WalDelta, started: float
    ) -> None:
        """Publish what the start resumed: the ``recovered`` report."""
        tail = len(delta.entries)
        for source, count in (("store", stored), ("wal", tail)):
            if count:
                self._m_recovered.inc(count, source=source)
        report = RecoveryReport(
            store_entries=stored,
            wal_records=delta.records,
            replayed=stored + tail,
            duplicates=delta.duplicates,
            cases=len(self._case_seq),
            torn_segments=delta.torn,
            store_intact=True,
            duration_s=time.perf_counter() - started,
        )
        self.recovery_report = report
        self._tel.events.emit(SERVE_RECOVERED, **report.to_dict())

    # -- ingest ------------------------------------------------------------
    def submit(
        self,
        entry: LogEntry,
        subscriber: Optional[Subscriber] = None,
        traceparent: Optional[str] = None,
        seq: Optional[int] = None,
        line: Optional[bytes] = None,
    ) -> Admission:
        """Admit one entry and replay it before returning.

        With a WAL configured, the entry is framed into the log *before*
        it is replayed and reported accepted — an entry that
        cannot be logged is rejected (:class:`~repro.serve.wal.WalError`),
        not half-accepted.  *line* is the ``entry`` op the entry was
        decoded from, as the client sent it, stripped: the log frames it
        as it is (:meth:`~repro.serve.wal.WalWriter.append`).  An entry
        without one (an ``xes`` document, an in-process caller) meets
        the wire's rule all the same: one with an empty user, role,
        action, task or case is refused with
        :class:`~repro.errors.MalformedEntryError`
        (:func:`~repro.serve.protocol.require_fields`) before anything
        is logged, replayed or stored.  ``seq`` (1-based per case) makes
        re-sends idempotent: an entry at or below the case's high-water
        mark is acknowledged as a ``duplicate`` without being
        re-processed; one *beyond* the next expected number is refused
        ``busy`` (the sender must deliver the gap first).  While the
        store writer is dead every entry is refused ``busy``.

        *subscriber* receives the entry's verdict event, if the entry
        moved its case, on this thread and before this returns.

        With tracing enabled, ``traceparent`` (a W3C header value, e.g.
        from the wire protocol's optional field) becomes the remote
        parent of the case's trace; the first ingest span of a case is
        its local root.  Disabled, the extra cost is one attribute read.
        """
        if self._tel.tracer.enabled:
            return self._submit_traced(entry, subscriber, traceparent, seq, line)
        return self._admit(entry, subscriber, None, seq, line)

    def _submit_traced(
        self,
        entry: LogEntry,
        subscriber: Optional[Subscriber],
        traceparent: Optional[str],
        seq: Optional[int],
        line: Optional[bytes],
    ) -> Admission:
        """The traced ingest path: same admission, wrapped in a span."""
        tracer = self._tel.tracer
        case = entry.case
        with self._trace_lock:
            root = self._case_traces.get(case)
        if root is None:
            parent = parse_traceparent(traceparent) if traceparent else None
        else:
            parent = root
        with tracer.span(
            "serve.ingest", parent=parent, case=case, task=entry.task
        ) as span:
            if root is None:
                with self._trace_lock:
                    root = self._case_traces.setdefault(case, span.context)
            admission = self._admit(entry, subscriber, root, seq, line)
            if not admission.accepted:
                span.attrs["admitted"] = False
                span.attrs["reason"] = admission.reason or (
                    "duplicate" if admission.duplicate else "busy"
                )
        return admission

    def _admit(
        self,
        entry: LogEntry,
        subscriber: Optional[Subscriber],
        ctx: Optional[TraceContext],
        seq: Optional[int],
        line: Optional[bytes],
    ) -> Admission:
        case = entry.case
        if line is None:
            # The wire decoder applied the rule to an entry with a line.
            require_fields(entry)
        with self._ingest_lock:
            if not self._accepting:
                raise ReproError("the service is draining; entry rejected")
            count = self._case_seq.get(case, 0)
            if self._store_error is not None:
                return self._refuse(
                    seq, f"audit store unavailable: {self._store_error}"
                )
            if seq is not None:
                if seq <= count:
                    # An idempotent re-send (client resumed after a
                    # reconnect): already accepted, ack without replay.
                    self._duplicate_total += 1
                    self._m_duplicates.inc()
                    return Admission(
                        accepted=False,
                        case_seq=seq,
                        duplicate=True,
                        reason="already accepted",
                    )
                if seq != count + 1:
                    # A gap: earlier entries of the case were refused
                    # or lost.  Refuse this one too — the sender must
                    # redeliver in order.
                    return self._refuse(
                        seq,
                        f"sequence gap for case {case!r}: expected "
                        f"{count + 1}, got {seq}",
                    )
            case_seq = count + 1
            wal_seq = 0
            if self._wal is not None:
                # The acceptance point: not in the WAL => never acked.
                try:
                    wal_seq = self._wal.append(entry, case_seq, line)
                except WalError:
                    raise
                except Exception as error:
                    raise WalError(
                        f"write-ahead append failed; entry not accepted: "
                        f"{error}"
                    ) from error
                self._m_wal_records.inc()
            self._case_seq[case] = case_seq
            self._received += 1
            self._m_entries.inc()
            full = False
            if self._writer is not None:
                with self._pending_lock:
                    self._pending.append(entry)
                    if wal_seq:
                        self._pending_wal_seq = wal_seq
                    full = len(self._pending) >= self.config.flush_max_batch
            self._replay(entry, subscriber, ctx)
        if full:
            self.flush()
        return Admission(accepted=True, case_seq=case_seq)

    def _refuse(self, seq: Optional[int], reason: str) -> Admission:
        """A ``busy`` refusal: the entry must be sent again."""
        self._busy_total += 1
        self._m_busy.inc()
        return Admission(
            accepted=False,
            case_seq=seq or 0,
            busy=True,
            retry_after_s=RETRY_AFTER_S,
            reason=reason,
        )

    def _replay(
        self,
        entry: LogEntry,
        subscriber: Optional[Subscriber] = None,
        ctx: Optional[TraceContext] = None,
    ) -> None:
        """One entry's replay step: trace spans, the ingest histogram,
        the quarantine note and the verdict event around the engine's
        ``observe``.  Callers hold the admission lock (or run the
        start-up resume, before anything else can)."""
        monitor = self._monitor
        case = entry.case
        tracer = self._tel.tracer
        replay_span_id = ""
        started = time.perf_counter()
        try:
            if ctx is not None and tracer.enabled:
                # The replay half of the case's trace: monitor-internal
                # "replay"/"weaknext" spans nest under this via the
                # thread's span stack.
                with tracer.span("serve.replay", parent=ctx, case=case) as span:
                    previous, state, raised = monitor.observe(entry)
                    replay_span_id = span.span_id
            else:
                previous, state, raised = monitor.observe(entry)
        except Exception as error:  # pragma: no cover - last resort
            # Anything the engine's own containment missed is charged
            # to the entry's case, never to the stream.
            self._note_quarantined(
                case,
                monitor.case_failure_kind(case) or OutcomeKind.ERROR,
                str(error),
            )
            return
        elapsed = time.perf_counter() - started
        if ctx is not None:
            self._m_ingest.observe_with_exemplar(
                elapsed, ctx.trace_id, replay_span_id
            )
        else:
            self._m_ingest_fast.observe(elapsed)

        if raised and raised[-1].kind in FAILURE_KINDS:
            # The engine contained the case: take it out of rotation.
            self._note_quarantined(
                case, monitor.case_failure_kind(case), raised[-1].detail
            )
        if (
            ctx is not None
            and state in TERMINAL_STATES
            and previous not in TERMINAL_STATES
        ):
            # The case settled: close its trace with an instant span.
            tracer.record_span(
                "serve.verdict",
                time.time(),
                0.0,
                parent=ctx,
                case=case,
                state=str(state),
            )
        if subscriber is not None and (previous is not state or raised):
            event = {
                "event": EV_VERDICT,
                "case": case,
                "state": str(state),
                "previous": str(previous) if previous is not None else None,
                "purpose": monitor.case_purpose(case),
                "infringements": [finding.as_dict() for finding in raised],
            }
            if ctx is not None:
                event["trace"] = ctx.trace_id
            subscriber(event)

    def case_trace(self, case: str) -> Optional[TraceContext]:
        """The case's root trace context (None untraced/unseen)."""
        with self._trace_lock:
            return self._case_traces.get(case)

    def barrier(self, callback: Callable[[], None]) -> None:
        """Invoke *callback* once all work submitted so far is processed.

        :meth:`submit` replays an entry before it returns, so nothing is
        ever waiting and the callback runs at once, on this thread.  The
        ``sync`` and ``results`` ops pass through here: it is the one
        point that orders them after the entries sent before them.
        """
        callback()

    def flush(self) -> None:
        """Hand the buffered entries to the store writer (async commit).

        Batches reach the writer in the order they leave the buffer, so
        the store keeps acceptance order however many threads flush.
        """
        if self._writer is None:
            return
        with self._pending_lock:
            batch, self._pending = self._pending, []
            if not batch:
                return
            floor = self._pending_wal_seq
            contexts: tuple[TraceContext, ...] = ()
            if self._tel.tracer.enabled:
                # The distinct case traces this flush persists entries
                # of — the writer parents (one) or links (many) its span.
                seen: dict[str, TraceContext] = {}
                with self._trace_lock:
                    for entry in batch:
                        ctx = self._case_traces.get(entry.case)
                        if ctx is not None:
                            seen.setdefault(ctx.trace_id, ctx)
                contexts = tuple(seen.values())
            self._writer.queue.put(("batch", batch, contexts, floor))

    def wal_commit(self) -> int:
        """Fsync the WAL buffer (the ``sync`` durability ack).

        Returns the number of records made durable.  Safe (a no-op)
        without a WAL.
        """
        if self._wal is None:
            return 0
        flushed = self._wal.commit()
        if flushed:
            self._tel.events.emit(SERVE_WAL_COMMIT, records=flushed)
        return flushed

    @property
    def durable(self) -> bool:
        """Whether accepted entries outlive the process (a durable store)."""
        return self._durable_store_path() is not None

    def sync(self) -> None:
        """Block until every entry accepted so far survives a restart:
        what the ``sync`` op waits for when the router is
        :attr:`durable`.

        With a WAL, its fsync; on a durable store without one, a flush
        and the store writer's commit of it; otherwise nothing.  Raises
        when the entries cannot be made durable: a failed fsync, or a
        store writer that died.
        """
        if self._wal is not None:
            self.wal_commit()
        elif self.durable:
            self.flush()
            if self._writer_sync():
                return
            # A drain stopped the writer before it reached the barrier:
            # it committed everything queued before its stop, ours too.
            if self._store_error is None and self._writer.intact:
                return
            raise ReproError(
                "audit store unavailable: "
                f"{self._store_error or 'the store writer stopped'}"
            )

    @property
    def wal_enabled(self) -> bool:
        return self._wal is not None

    def _durable_store_path(self) -> Optional[str]:
        """The store path when it survives this process (None otherwise)."""
        path = self.config.store_path
        if path is None or path == ":memory:":
            return None
        return path

    def _on_batch_durable(self, floor: int) -> None:
        """Store-writer callback: a batch committed; retire covered WAL."""
        if self._wal is None or not floor:
            return
        removed = self._wal.retire(floor)
        if removed:
            self._tel.events.emit(
                SERVE_WAL_RETIRED, upto=floor, segments=removed
            )

    def _writer_sync(self, timeout: float = float("inf")) -> bool:
        """Block until every store batch queued so far has committed;
        False if the *timeout* runs out or the writer thread is dead (a
        commit raised, or the router drained) before that is known."""
        writer = self._writer
        if writer is None:
            return True
        event = threading.Event()
        writer.queue.put(("sync", event))
        deadline = time.monotonic() + timeout
        # A writer that dies while this waits never fires the event.
        while not event.wait(_WRITER_POLL_S):
            if not writer.is_alive() or time.monotonic() >= deadline:
                return event.is_set()
        return True

    # -- drain -------------------------------------------------------------
    def drain(self) -> DrainReport:
        """Stop intake, flush, and stop the store writer.

        Idempotent; an admission in flight finishes first.
        """
        if self._drained:
            return self._drain_report
        with self._ingest_lock:
            self._accepting = False
        self.flush()
        intact: Optional[bool] = None
        if self._writer is not None:
            self._writer.queue.put(None)
            self._writer.join()
            intact = self._writer.intact
        if self._wal is not None:
            self._wal.close()
            if intact:
                # A clean drain with an intact store owns every record;
                # the WAL has nothing left to recover.
                remove_segments(self.config.wal_dir)
        final = {
            record["case"]: record["state"]
            for record in self.iter_results(digests=False)
        }
        self._drain_report = DrainReport(
            entries_received=self._received,
            entries_written=self.entries_written,
            cases=len(final),
            quarantined_cases=len(self._quarantined),
            store_intact=intact,
            final_states=final,
        )
        self._drained = True
        self._tel.events.emit(
            SERVE_DRAINED,
            entries=self._received,
            written=self._drain_report.entries_written,
            cases=self._drain_report.cases,
            quarantined=self._drain_report.quarantined_cases,
        )
        return self._drain_report

    # -- inspection --------------------------------------------------------
    @property
    def entries_received(self) -> int:
        return self._received

    @property
    def entries_written(self) -> int:
        return self._writer.written if self._writer is not None else 0

    @property
    def draining(self) -> bool:
        return not self._accepting

    @property
    def store_error(self) -> Optional[str]:
        """Why the store writer died; None while it lives (or no store)."""
        return self._store_error

    def case_sequence(self, case: str) -> int:
        """Accepted entries of *case* so far (the dedup high-water mark)."""
        with self._ingest_lock:
            return self._case_seq.get(case, 0)

    def quarantined_cases(self) -> dict[str, OutcomeKind]:
        """Cases the service took out of rotation, with their failure kind."""
        with self._ingest_lock:
            return dict(self._quarantined)

    @property
    def registry(self) -> ProcessRegistry:
        """The shared registry (the control plane maps tenants over it)."""
        return self._registry

    # -- quarantine triage (the control plane's verbs) -----------------------
    def requeue_case(self, case: str) -> RequeueResult:
        """Give a quarantined case a fresh from-scratch replay.

        The replay runs now, on this thread, under the admission lock:
        it covers every entry accepted so far, and the next one lands
        after the fresh session exists.  The engine replays under a
        fresh budget meter; a failure that reproduces goes back into
        quarantine.  A draining router or an unknown/not-quarantined
        case is refused with a reason.  Counts
        ``serve_requeues_total{outcome}``.
        """
        with self._ingest_lock:
            if not self._accepting:
                return RequeueResult(
                    case, accepted=False, reason="the service is draining"
                )
            if case not in self._quarantined:
                self._m_requeues.inc(outcome="refused")
                return RequeueResult(
                    case,
                    accepted=False,
                    reason=f"case {case!r} is not quarantined",
                )
            # Popping the note *before* the replay lets it be filed again
            # if the failure reproduces; _note_quarantined is
            # first-write-wins, so the slot must be free.
            del self._quarantined[case]
            state, replayed, kind = self._monitor.requeue(case)
            if kind is not None:
                self._note_quarantined(
                    case, kind, "failure reproduced on requeue"
                )
            self._m_requeues.inc(
                outcome="requarantined" if kind is not None else "replayed"
            )
        return RequeueResult(
            case,
            accepted=True,
            state=str(state) if state is not None else None,
            replayed_entries=replayed,
        )

    def dismiss_quarantined(self, case: str) -> Optional[OutcomeKind]:
        """Drop a case from the quarantine list (operator accepts the loss).

        Returns the failure kind the case was quarantined with, or
        ``None`` if it was not quarantined.  The monitor's terminal
        state is untouched — dismissal is triage bookkeeping, not an
        acquittal; the control plane records it durably in the store's
        control log.  A dismissed case is never filed again.
        """
        with self._ingest_lock:
            kind = self._quarantined.pop(case, None)
            if kind is not None:
                self._dismissed.add(case)
        if kind is not None:
            self._m_dismissals.inc()
        return kind

    def iter_results(
        self, cases: Optional[Iterable] = None, digests: bool = True
    ) -> Iterator[dict]:
        """Per-case records, each read from the engine as it is yielded.

        Without *cases*: every observed case, in first-seen order.  With
        *cases*: the requested ids in request order, duplicates
        collapsed, ids the engine does not hold (non-strings included)
        dropped.  A consumer that writes each record out
        before pulling the next holds one at a time — the streamed
        ``results`` reply and the drain-time ``final`` events do.  Each
        record is read under the admission lock, which is never held
        across a ``yield``.
        """
        monitor = self._monitor
        if cases is None:
            for case in monitor.cases():
                with self._ingest_lock:
                    record = monitor.case_record(case, digest=digests)
                yield record
            return
        seen: set[str] = set()
        for case in cases:
            if not isinstance(case, str) or case in seen:
                continue
            seen.add(case)
            with self._ingest_lock:
                record = (
                    monitor.case_record(case, digest=digests)
                    if monitor.case_state(case) is not None
                    else None
                )
            if record is not None:
                yield record

    def results(self, digests: bool = True) -> dict[str, dict]:
        """Per-case final word: state, purpose, digest, failure kind.

        :meth:`iter_results` collected into a dict keyed by case id.
        ``digests=False`` leaves the ``digest`` field out: no replay
        result is built, so a console can afford it on every refresh and
        complete only the records it shows with :meth:`case_record`.
        """
        return {
            record["case"]: record
            for record in self.iter_results(digests=digests)
        }

    def case_record(self, case: str) -> dict:
        """One case's :meth:`results` record, read now from the engine.

        A case the engine does not hold reads as all-``None`` fields.
        """
        with self._ingest_lock:
            return self._monitor.case_record(case)

    def case_findings(self, case: str) -> list[dict]:
        """One case's findings since it was (re)opened, read now from the
        engine (``[]`` for a case it does not hold)."""
        with self._ingest_lock:
            findings = self._monitor.case_findings(case)
        return [finding.as_dict() for finding in findings]

    def refresh_gauges(self) -> Optional[dict[str, int]]:
        """The WAL's statistics (None without one); also updates the
        ``serve_wal_*`` gauges.

        Called at scrape time (``/healthz``, ``/metrics``, the ``status``
        op) so the WAL lag gauges are current whenever anybody looks.
        """
        if self._wal is None:
            return None
        stats = self._wal.stats()
        self._m_wal_unflushed_records.set(stats["unflushed_records"])
        self._m_wal_unflushed_bytes.set(stats["unflushed_bytes"])
        self._m_wal_segments.set(stats["segments"])
        return stats

    def statistics(self) -> dict[str, object]:
        """A live snapshot for the ``status`` op and ``/healthz``."""
        with self._ingest_lock:
            per_state = self._monitor.statistics()
            entries = per_state.pop("entries")
            quarantined = len(self._quarantined)
        wal = self.refresh_gauges() or {}
        recovery: dict[str, object] = {"recovered": False}
        if self.recovery_report is not None:
            recovery = {"recovered": True, **self.recovery_report.to_dict()}
        return {
            "entries_received": self._received,
            "entries_observed": entries,
            "entries_written": self.entries_written,
            "cases": per_state,
            "quarantined_cases": quarantined,
            "dead_letters": len(self.dead_letters),
            "draining": self.draining,
            "backpressure": {
                "busy": self._busy_total,
                "duplicates": self._duplicate_total,
            },
            "wal": {
                "enabled": self._wal is not None,
                "records": wal.get("records", 0),
                "unflushed_records": wal.get("unflushed_records", 0),
                "unflushed_bytes": wal.get("unflushed_bytes", 0),
                "segments": wal.get("segments", 0),
            },
            "recovery": recovery,
            "store": {
                "enabled": self._writer is not None,
                "error": self._store_error,
            },
        }

    # -- internals ---------------------------------------------------------
    def _note_quarantined(
        self, case: str, kind: OutcomeKind, detail: str
    ) -> None:
        """Record (once) that *case* was taken out of rotation, unless an
        operator dismissed it.  Callers hold the admission lock (or run
        the start-up resume, before anything else can)."""
        if case in self._quarantined or case in self._dismissed:
            return
        self._quarantined[case] = kind
        self._m_quarantined.inc(kind=kind.value)
        self._tel.events.emit(
            CASE_QUARANTINED, case=case, kind=kind.value, detail=detail
        )
