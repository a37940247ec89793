"""The sharded streaming-audit engine behind ``repro serve``.

The :class:`ShardRouter` is the socket-free core of the audit daemon:
it owns N worker threads, each running its own
:class:`~repro.core.monitor.OnlineMonitor`, and routes every incoming
log entry to exactly one shard by consistent-hashing its case id
(:mod:`repro.serve.sharding`).  Algorithm 1 is stateful *per case* and
cases are independent (Section 7's scalability argument), so sharding
by case id parallelizes the stream without any cross-shard
coordination — each case's entries are processed in arrival order by
the one thread that owns its frontier.

Everything the asyncio service (:mod:`repro.serve.service`) does goes
through this class, and the test suites drive it directly where a
socket would only add noise (the hypothesis stream-equivalence
property runs thousands of examples against it).

Responsibilities:

* **encode-once warm-up** — all shards share one
  :class:`~repro.policy.registry.ProcessRegistry`, whose
  ``encoded_for`` memoizes the BPMN→COWS encoding, and (when an
  ``automaton_dir`` is configured) one on-disk
  :class:`~repro.compile.AutomatonCache`; :meth:`start` pre-encodes
  every registered purpose so N shards never encode the same process
  twice;
* **crash-safe ingest** — with a ``wal_dir`` configured, every entry is
  appended to its shard's write-ahead log (:mod:`repro.serve.wal`)
  *before* :meth:`submit` accepts it; WAL segments are retired only
  once the batched store flush covering them commits, so after a
  ``kill -9`` the store + WAL delta is exactly the set of accepted
  entries, and :meth:`start` resumes it byte-identically before it
  accepts anything;
* **durable ingest** — every accepted entry is buffered and flushed to
  an :class:`~repro.audit.store.AuditStore` in batched
  ``append_many`` transactions by a dedicated writer thread (SQLite
  connections are single-threaded);
* **bounded backpressure** — per-shard queues are bounded
  (``queue_capacity``) and nothing a client causes ever blocks on one:
  :meth:`submit` refuses an entry ``busy`` once its shard's queue
  reaches the watermark (three quarters of the capacity), and the room
  above it is kept for control items, whose :meth:`barrier` posts to
  every shard or to none.  Refused entries are *not* WAL-appended and
  *not* acked — overload never silently drops an accepted entry;
* **idempotent resume** — clients may number each case's entries
  (``seq``); :meth:`submit` dedupes re-sent entries by per-case
  high-water mark, so a client that reconnects and replays its
  unacknowledged tail never double-counts an entry;
* **per-case backpressure** — each shard's engine
  (:class:`~repro.core.monitor.OnlineMonitor`) meters cumulative
  processing time per case; a case that exceeds ``case_timeout_s`` is
  contained as ``OutcomeKind.TIMEOUT`` and the shard quarantines it, so
  a stuck case never stalls its shard's queue for long — the stream
  stays live;
* **supervision** — whenever the WAL is on, a
  :class:`~repro.serve.supervisor.ShardSupervisor` watches heartbeats:
  a dead or hung shard is replaced and its cases replayed from the
  store + WAL; the entry being processed at crash time is quarantined
  as the poison suspect; past ``max_shard_restarts`` the shard is
  removed from the ring and its cases re-homed to the survivors;
* **drain** — stop intake, let every shard finish its queue, flush the
  store, and report final per-case verdicts.  Drain writes no automaton
  artifact: the next boot recompiles every purpose.
"""

from __future__ import annotations

import os
import queue
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from repro.audit.model import LogEntry
from repro.audit.store import AuditStore
from repro.core.monitor import (
    FAILURE_KINDS,
    TERMINAL_STATES,
    CaseState,
    OnlineMonitor,
)
from repro.core.resilience import OutcomeKind, Quarantine, RestartBudget
from repro.errors import MalformedEntryError, ReproError
from repro.obs import (
    CASE_QUARANTINED,
    NULL_TELEMETRY,
    SERVE_DRAINED,
    SERVE_FLUSH,
    SERVE_OVERLOAD,
    SERVE_RECOVERED,
    SERVE_SHARD_REASSIGNED,
    SERVE_SHARD_RESTARTED,
    SERVE_WAL_COMMIT,
    SERVE_WAL_RETIRED,
    Telemetry,
    TraceContext,
    parse_traceparent,
)
from repro.policy.hierarchy import RoleHierarchy
from repro.policy.registry import ProcessRegistry
from repro.serve.protocol import EV_VERDICT
from repro.serve.recovery import (
    CaseHistory,
    HistoryScan,
    RecoveryReport,
    collect_case_histories,
)
from repro.serve.sharding import ConsistentHashRing
from repro.serve.wal import WalError, WalWriter, segment_paths

#: A callback receiving protocol-shaped server events for one client.
#: Called from shard threads — implementations must be thread-safe
#: (the asyncio service marshals onto the loop; tests append to lists
#: under the GIL).
Subscriber = Callable[[dict], None]

#: Seconds a refused submission waits before it is sent again: the hint
#: carried by ``busy`` refusals, the requeue ``503`` and the service's
#: own retries of ``xes`` entries and barriers.
RETRY_AFTER_S = 0.05


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs for the audit daemon (see ``docs/serving.md``).

    ``flush_interval_s`` is enforced by the service's timer task; the
    router itself flushes whenever the buffer reaches
    ``flush_max_batch`` and once on drain, so a router used without the
    asyncio wrapper still persists everything.

    ``case_timeout_s`` is each case's cumulative processing budget.  The
    case's engine (:class:`~repro.core.monitor.OnlineMonitor`) meters
    it: every entry but the one that opens the case is charged, a
    requeue replays under a fresh meter, and a case over budget is
    contained as ``timeout`` and quarantined.

    ``queue_capacity`` bounds each shard's queue: entries are refused
    ``busy`` from three quarters of it, and the rest is kept for control
    items (barriers, requeues).  ``wal_dir`` is the one crash-safety
    switch: a router with it resumes the store + WAL at start and
    supervises its shards, whose restarts replay from that record (a
    router refuses ``hang_timeout_s`` without it: nothing would police
    it).  The hash ring and the WAL segments keep their own defaults
    (:class:`ConsistentHashRing`, :class:`~repro.serve.wal.WalWriter`).

    Construction refuses numbers no daemon can run with (``ValueError``),
    wherever they came from: flags, config budgets or library callers.
    """

    shards: int = 4
    store_path: Optional[str] = None
    flush_interval_s: float = 0.5
    flush_max_batch: int = 256
    case_timeout_s: Optional[float] = None  # cumulative per-case budget
    queue_capacity: int = 10_000  # per-shard; entries refused from 3/4
    compiled: Optional[bool] = None
    automaton_dir: Optional[str] = None
    # -- crash safety and supervision (docs/robustness.md) --
    wal_dir: Optional[str] = None  # per-shard write-ahead ingest logs
    heartbeat_interval_s: float = 0.25
    hang_timeout_s: Optional[float] = None  # None: hangs are not policed
    max_shard_restarts: int = 2

    def __post_init__(self) -> None:
        # Every test is False for NaN, so NaN is refused too.
        for names, wording, valid in (
            (("shards", "queue_capacity", "flush_max_batch"), "at least 1",
             lambda value: value >= 1),
            (("flush_interval_s", "heartbeat_interval_s"), "positive",
             lambda value: value > 0),
            (("case_timeout_s", "hang_timeout_s"), "positive when set",
             lambda value: value is None or value > 0),
            (("max_shard_restarts",), "zero or more",
             lambda value: value >= 0),
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
    the WAL — if configured — and routed), ``duplicate`` (an idempotent
    re-send, already accepted earlier), or ``busy`` (the entry was
    refused — its shard's queue at the watermark, or a sequence gap —
    and must be re-sent; ``retry_after_s`` is the server's back-off
    hint).
    """

    accepted: bool
    shard: str
    case_seq: int = 0  # 1-based position of the entry within its case
    wal_seq: int = 0  # 0 when the WAL is disabled
    duplicate: bool = False
    busy: bool = False
    retry_after_s: float = 0.0
    reason: str = ""


@dataclass(frozen=True)
class RequeueResult:
    """What :meth:`ShardRouter.requeue_case` decided about one case.

    ``accepted`` means the owning shard replays the case's full entry
    history through a fresh session under a fresh budget meter;
    ``state`` and ``replayed_entries`` describe where the replay landed
    (empty when the caller stopped waiting first).  ``busy`` mirrors entry admission:
    the shard's queue was over its busy watermark, retry after
    ``retry_after_s``.  A refusal (unknown / not-quarantined case, or a
    draining router) sets ``reason``.
    """

    case: str
    accepted: bool
    busy: bool = False
    retry_after_s: float = 0.0
    reason: str = ""
    shard: str = ""
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


class _Barrier:
    """A countdown latch posted to every shard queue.

    Fires *callback* (from the last shard's worker thread) once every
    shard has drained all work enqueued before it — the ``sync`` op.
    """

    def __init__(self, parties: int, callback: Callable[[], None]):
        self._remaining = parties
        self._lock = threading.Lock()
        self._callback = callback

    def arrive(self) -> None:
        with self._lock:
            self._remaining -= 1
            fire = self._remaining == 0
        if fire:
            self._callback()


def _replay_items(history: CaseHistory) -> list[tuple]:
    """One case's durable history as a shard's ``rebuild`` items."""
    return [("entry", entry, None, None) for entry in history.entries]


class _Shard(threading.Thread):
    """One worker thread owning one :class:`OnlineMonitor`.

    The thread's own duties are the queue, the heartbeat, trace spans,
    the ingest histogram, the router's quarantine note and the verdict
    event; every per-case decision is the engine's.  ``rebuild`` is how
    durable history (the store + WAL) goes back into a shard, at the
    router's start-up resume and on a supervised restart alike: the
    shard processes those items before touching its queue, so a barrier
    posted after them only fires once the rebuilt state is current.
    """

    def __init__(
        self,
        name: str,
        monitor: OnlineMonitor,
        router: "ShardRouter",
        rebuild: list[tuple],
    ):
        super().__init__(name=f"repro-serve-{name}", daemon=True)
        self.shard_name = name
        self.monitor = monitor
        self.queue: "queue.Queue[tuple]" = queue.Queue(
            maxsize=router.config.queue_capacity
        )
        self._router = router
        self._rebuild = rebuild
        self.entries_observed = 0
        #: Set once the monitor's checkers are warm (artifacts loaded);
        #: the router's ``start`` blocks on it so the first streamed
        #: entry never pays artifact-parse latency.
        self.warmed = threading.Event()
        # -- supervision surface (read cross-thread; GIL-atomic) --
        self.last_beat = time.monotonic()  # refreshed each item / idle tick
        self.current_case: Optional[str] = None  # set while processing
        self.stopped = False  # exited via an intentional ("stop",)
        self.abandoned = False  # replaced by the supervisor; go inert

    def run(self) -> None:
        interval = self._router.config.heartbeat_interval_s
        try:
            try:
                self.monitor.prewarm()
            finally:
                self.warmed.set()
            for item in self._rebuild:
                self._handle(item)
            self._rebuild = []
            while True:
                try:
                    item = self.queue.get(timeout=interval)
                except queue.Empty:
                    self.last_beat = time.monotonic()
                    continue
                try:
                    if not self._handle(item):
                        return
                finally:
                    self.queue.task_done()
        except BaseException:  # noqa: BLE001 - the crash path
            # A BaseException escaping the monitor (an injected
            # ShardKill, a real interpreter-level failure) kills this
            # shard.  Die quietly: ``current_case`` stays set, so the
            # supervisor can quarantine the poison suspect and rebuild
            # everything else from the store + WAL.
            pass

    def _handle(self, item: tuple) -> bool:
        """Process one work item; False stops the thread."""
        kind = item[0]
        self.last_beat = time.monotonic()
        try:
            if kind == "stop":
                self.stopped = True
                return False
            if kind == "entry":
                self._observe(item[1], item[2], item[3])
            elif kind == "barrier":
                item[1].arrive()
            elif kind == "contain":
                # The supervisor's poison-case verdict: the entry in
                # flight when a shard died is charged to its case.
                if not self.abandoned:
                    self.monitor.contain(item[1], item[2])
            elif kind == "requeue":
                self._requeue(item[1], item[2], item[3])
        except Exception as error:  # pragma: no cover - last resort
            # A shard thread must never die to an ordinary exception:
            # anything the monitor's own containment missed is charged
            # to the entry's case.
            self.current_case = None
            if kind == "entry" and not self.abandoned:
                self._router._note_quarantined(
                    item[1].case,
                    self.monitor.case_failure_kind(item[1].case)
                    or OutcomeKind.ERROR,
                    str(error),
                )
        return True

    @property
    def inflight_cases(self) -> int:
        """Open (non-terminal) cases currently owned by this shard."""
        return self.monitor.open_count

    def record(self, case: str, digest: bool = True) -> dict:
        """The engine's record of *case*, tagged with this shard."""
        record = self.monitor.case_record(case, digest=digest)
        record["shard"] = self.shard_name
        return record

    def _requeue(
        self, case: str, done: threading.Event, holder: dict
    ) -> None:
        """Replay a quarantined case from scratch (the triage verb).

        Runs on this shard's thread, so it is serialized with the case's
        live entries exactly like any other item: the history replayed
        is everything observed up to this point in the queue, and any
        entry admitted later lands after the fresh session exists.  The
        engine replays under a fresh budget meter; a failure that
        reproduces goes back into quarantine.  ``holder`` carries the
        outcome back to the waiting control plane; ``done`` always fires
        (``finally``), so an API call never hangs on a replay that blows
        up.
        """
        try:
            state, replayed, kind = self.monitor.requeue(case)
            if kind is not None:
                self._router._note_quarantined(
                    case, kind, "failure reproduced on requeue"
                )
            holder["state"] = str(state) if state is not None else None
            holder["replayed"] = replayed
            self._router._m_requeues.inc(
                outcome="requarantined" if kind is not None else "replayed"
            )
        finally:
            done.set()

    def _observe(
        self,
        entry: LogEntry,
        subscriber: Optional[Subscriber],
        ctx: Optional[TraceContext] = None,
    ) -> None:
        if self.abandoned:
            # Replaced mid-flight: the rebuilt shard owns this case's
            # truth (the entry is in the WAL it replayed from).
            return
        monitor = self.monitor
        case = entry.case
        self.current_case = case
        tracer = self._router._tel.tracer
        replay_span_id = ""
        started = time.perf_counter()
        if ctx is not None and tracer.enabled:
            # The shard-side half of the case's trace: monitor-internal
            # "replay"/"weaknext" spans nest under this via the thread's
            # span stack.
            with tracer.span(
                "serve.replay", parent=ctx, case=case, shard=self.shard_name
            ) as span:
                previous, state, raised = monitor.observe(entry)
                replay_span_id = span.span_id
        else:
            previous, state, raised = monitor.observe(entry)
        elapsed = time.perf_counter() - started
        if self.abandoned:
            # Replaced while observing (a hang verdict): drop every
            # side effect — metrics, verdict events, quarantine notes —
            # the replacement shard has already re-derived this case.
            return
        self.entries_observed += 1
        if ctx is not None:
            self._router._m_ingest.observe_with_exemplar(
                elapsed, ctx.trace_id, replay_span_id
            )
        else:
            self._router._m_ingest_fast.observe(elapsed)

        if raised and raised[-1].kind in FAILURE_KINDS:
            # The engine contained the case: take it out of rotation.
            self._router._note_quarantined(
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
                shard=self.shard_name,
            )
        if subscriber is not None and (previous is not state or raised):
            event = {
                "event": EV_VERDICT,
                "case": case,
                "state": str(state),
                "previous": str(previous) if previous is not None else None,
                "purpose": monitor.case_purpose(case),
                "shard": self.shard_name,
                "infringements": [finding.as_dict() for finding in raised],
            }
            if ctx is not None:
                event["trace"] = ctx.trace_id
            subscriber(event)
        self.current_case = None


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
        #: ``("batch", entries, contexts, wal floors)`` /
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
                _, batch, contexts, floors = item
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
                self._router._on_batch_durable(floors)
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
    """Consistent-hash fan-out of an entry stream over monitor shards."""

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
        if self.config.hang_timeout_s and self.config.wal_dir is None:
            raise ValueError(
                "hang_timeout_s needs wal_dir: only a router with a "
                "write-ahead log supervises its shards"
            )
        # Entries are admitted below this depth; the room above it up to
        # queue_capacity is kept for barriers and requeues.
        self._busy_wm = max(1, (self.config.queue_capacity * 3) // 4)
        self._registry = registry
        self._hierarchy = hierarchy
        self._checker_wrapper = checker_wrapper
        self._wal_fault_hook = wal_fault_hook
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel = tel
        self.dead_letters = Quarantine(telemetry=tel)

        names = [f"shard-{i}" for i in range(self.config.shards)]
        self._ring = ConsistentHashRing(names)
        self._shards: dict[str, _Shard] = {}
        self._writer: Optional[_StoreWriter] = None
        #: Why the store writer died (None while it lives): from then
        #: on no thread can make an entry durable, so none is accepted.
        self._store_error: Optional[str] = None
        self._wals: dict[str, WalWriter] = {}
        #: ``(entry, shard name, wal seq)`` awaiting the next store flush.
        self._pending: list[tuple[LogEntry, str, int]] = []
        self._pending_lock = threading.Lock()
        # The admission lock: per-case sequence bookkeeping, watermark
        # checks, WAL appends, and shard handoff happen as one atomic
        # step, and supervised restarts exclude admissions entirely.
        self._ingest_lock = threading.Lock()
        self._case_seq: dict[str, int] = {}  # case -> accepted entries
        self._quarantined: dict[str, OutcomeKind] = {}
        #: Cases an operator dismissed; never filed again (start() seeds
        #: it from the durable store's control log).
        self._dismissed: set[str] = set()
        self._quarantined_lock = threading.Lock()
        self._accepting = False
        self._drained = False
        self._received = 0
        self._busy_total = 0
        self._duplicate_total = 0
        self._overload: dict[str, str] = {}  # shard -> ok | busy
        self._restart_budget = RestartBudget(self.config.max_shard_restarts)
        self._reassigned: list[str] = []  # shards removed from the ring
        self._supervisor = None  # set by start() when the WAL is on
        #: Set by :meth:`start` when it resumed a durable record.
        self.recovery_report = None
        self._tmp_automata: Optional[tempfile.TemporaryDirectory] = None
        self._automaton_dir_resolved: Optional[str] = None
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
            "serve_ingest_seconds", "shard processing time per entry"
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
        self._m_queue_depth = tel.registry.gauge(
            "serve_shard_queue_depth", "items waiting in each shard's queue"
        )
        self._m_inflight = tel.registry.gauge(
            "serve_shard_inflight_cases",
            "open (non-terminal) cases owned by each shard",
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
            "WAL records buffered but not yet fsynced, per shard",
        )
        self._m_wal_unflushed_bytes = tel.registry.gauge(
            "serve_wal_unflushed_bytes",
            "WAL bytes buffered but not yet fsynced, per shard",
        )
        self._m_wal_segments = tel.registry.gauge(
            "serve_wal_segments", "live WAL segment files per shard"
        )
        self._m_restarts = tel.registry.counter(
            "serve_shard_restarts_total",
            "supervised shard replacements, by shard and reason",
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
        """Warm shared state, resume the durable record, start the threads.

        With a ``wal_dir`` this returns only once everything the store
        and the write-ahead log hold is replayed: each case's history
        goes to its shard as the ``rebuild`` list a supervised restart
        uses, the per-case sequence marks are restored, and the WAL
        delta is committed to the store.  A tampered store is refused
        before any thread starts.  The shard supervisor runs whenever
        the WAL is on, the replay included.
        """
        if self._shards:
            raise ReproError("the router is already started")
        automaton_dir = self.config.automaton_dir
        if self.config.compiled or automaton_dir is not None:
            from repro.compile import AutomatonCache, precompile

            if automaton_dir is None:
                # Compiled serving always warms shards through an
                # AutomatonCache; without a configured directory the
                # artifacts live (and die) with the router.
                self._tmp_automata = tempfile.TemporaryDirectory(
                    prefix="repro-serve-automata-"
                )
                automaton_dir = self._tmp_automata.name
            # A daemon serves its stream from warm state: every purpose is
            # encoded and compiled once, here, on the shared registry, so
            # the N shards load the same fully explored table instead of
            # racing the live stream through WeakNext.  A purpose that
            # defeats compilation is contained per case at observe time.
            precompile(
                self._registry,
                AutomatonCache(automaton_dir, telemetry=self._tel),
                hierarchy=self._hierarchy,
                force=True,
                telemetry=self._tel,
            )
        else:
            # Encode every registered purpose once, up front, so the N
            # monitors hit the memoized encoding instead of each
            # re-encoding the BPMN.  A purpose whose encoding fails is
            # contained per case at observe time, like in batch audits.
            for purpose in self._registry.purposes():
                try:
                    self._registry.encoded_for(purpose)
                except Exception:
                    continue
        self._automaton_dir_resolved = automaton_dir
        started = time.perf_counter()
        store_path = self._durable_store_path()
        if store_path is not None and os.path.exists(store_path):
            # A dismissal outlives the process: the containments that
            # the resume and restarts replay do not file the case again.
            with AuditStore(store_path) as store:
                self._dismissed = store.dismissed_cases()
                if self.config.wal_dir is not None and not store.is_intact():
                    raise ReproError(
                        f"audit store {store_path} failed its hash-chain "
                        f"check; refusing to resume on top of a tampered "
                        f"record"
                    )
        rebuild: dict[str, list] = {name: [] for name in self._ring.shards}
        if self.config.wal_dir is not None:
            for name in self._ring.shards:
                self._wals[name] = WalWriter(
                    self.config.wal_dir, name, fault_hook=self._wal_fault_hook
                )
            # Each case's history goes to its shard to rebuild; only the
            # WAL delta is staged for the store, never the stored prefix.
            histories, scan = collect_case_histories(
                store_path, self.config.wal_dir
            )
            for case, history in histories.items():
                name = self._ring.shard_for(case)
                items = _replay_items(history)
                rebuild[name].extend(items)
                self._case_seq[case] = len(items)
                self._received += len(history.wal_entries)
                if self.config.store_path is not None:
                    self._pending.extend(
                        (entry, name, 0) for entry in history.wal_entries
                    )
        for name in self._ring.shards:
            shard = _Shard(name, self._new_monitor(), self, rebuild[name])
            self._shards[name] = shard
            self._overload[name] = "ok"
            shard.start()
        for shard in self._shards.values():
            # Block until every monitor loaded its artifacts: the first
            # streamed entry must hit warm state, never an artifact load.
            shard.warmed.wait(timeout=60)
        if self.config.store_path is not None:
            self._writer = _StoreWriter(self.config.store_path, self)
            self._writer.start()
        # Accepting before the replay ends: the supervisor restarts no
        # shard of a router that is not.
        self._accepting = True
        if self.config.wal_dir is not None:
            from repro.serve.supervisor import ShardSupervisor

            self._supervisor = ShardSupervisor(self)
            self._supervisor.start()
            self._finish_resume(histories, scan, started)

    def _finish_resume(
        self, histories: dict, scan: HistoryScan, started: float
    ) -> None:
        """Once the shards have replayed, commit the WAL delta, start
        each WAL afresh and publish the report — unless nothing was
        resumed.  If the store writer dies first, the WAL (the only
        durable copy of the delta) is kept, and the router stops and
        raises."""
        if not (scan.store_entries or scan.wal_records):
            return
        self.wait_idle()
        store_path = self._durable_store_path()
        # Under the admission lock, as a supervised restart reads the
        # store + WAL: it never sees a WAL half reset.
        with self._ingest_lock:
            self.flush()
            committed = self._writer_sync()
            if committed and store_path is not None:
                # The store owns everything now: each live shard's WAL
                # restarts empty, and an old topology's segments go.
                for wal in self._wals.values():
                    wal.reset()
                for path in segment_paths(self.config.wal_dir):
                    if path.name.rsplit("-", 1)[0] not in self._wals:
                        path.unlink(missing_ok=True)
        if not committed:
            self.drain()
            raise ReproError(
                "the audit store writer died before the resumed "
                "write-ahead log delta was committed; the log is kept "
                "for the next start"
            )
        delta = sum(len(history.wal_entries) for history in histories.values())
        for source, count in (("store", scan.store_entries), ("wal", delta)):
            if count:
                self._m_recovered.inc(count, source=source)
        report = RecoveryReport(
            store_entries=scan.store_entries,
            wal_records=scan.wal_records,
            replayed=scan.store_entries + delta,
            duplicates=scan.wal_duplicates,
            cases=len(histories),
            # A torn tail on the crashed run's final segments was cut
            # when this router's writers adopted them: still a tear.
            torn_segments=scan.torn_segments
            or any(wal.tears_repaired for wal in self._wals.values()),
            store_intact=True if store_path is not None else None,
            duration_s=time.perf_counter() - started,
        )
        self.recovery_report = report
        self._tel.events.emit(SERVE_RECOVERED, **report.to_dict())

    def _new_monitor(self) -> OnlineMonitor:
        return OnlineMonitor(
            self._registry,
            hierarchy=self._hierarchy,
            telemetry=self._tel,
            compiled=self.config.compiled,
            automaton_dir=self._automaton_dir_resolved,
            checker_wrapper=self._checker_wrapper,
            case_timeout_s=self.config.case_timeout_s,
        )

    # -- ingest ------------------------------------------------------------
    def submit(
        self,
        entry: LogEntry,
        subscriber: Optional[Subscriber] = None,
        traceparent: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> Admission:
        """Admit one entry and route it to its shard; never blocks.

        With a WAL configured, the entry is framed into its shard's log
        *before* this method reports it accepted — an entry that cannot
        be logged is rejected (:class:`~repro.serve.wal.WalError`), not
        half-accepted.  ``seq`` (1-based per case) makes re-sends
        idempotent: an entry at or below the case's high-water mark is
        acknowledged as a ``duplicate`` without being re-processed; one
        *beyond* the next expected number is refused ``busy`` (the
        sender must deliver the gap first — it happens naturally when
        some of a burst's entries were refused).

        An entry whose shard's queue is at the watermark (three quarters
        of ``queue_capacity``) is refused ``busy`` with the
        :data:`RETRY_AFTER_S` hint, so overload degrades into explicit
        retry-later responses instead of unbounded queueing; a caller
        that must deliver every entry re-sends after the hint.

        With tracing enabled, ``traceparent`` (a W3C header value, e.g.
        from the wire protocol's optional field) becomes the remote
        parent of the case's trace; the first ingest span of a case is
        its local root.  Disabled, the extra cost is one attribute read.
        """
        if not self._accepting:
            raise ReproError("the service is draining; entry rejected")
        if self._tel.tracer.enabled:
            return self._submit_traced(entry, subscriber, traceparent, seq)
        return self._admit(entry, subscriber, None, seq)

    def _submit_traced(
        self,
        entry: LogEntry,
        subscriber: Optional[Subscriber],
        traceparent: Optional[str],
        seq: Optional[int],
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
            admission = self._admit(entry, subscriber, root, seq)
            span.attrs["shard"] = admission.shard
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
    ) -> Admission:
        case = entry.case
        with self._ingest_lock:
            count = self._case_seq.get(case, 0)
            name = self._ring.shard_for(case)
            if self._store_error is not None:
                self._busy_total += 1
                self._m_busy.inc()
                return Admission(
                    accepted=False,
                    shard=name,
                    busy=True,
                    retry_after_s=RETRY_AFTER_S,
                    reason=f"audit store unavailable: {self._store_error}",
                )
            if seq is not None:
                if seq <= count:
                    # An idempotent re-send (client resumed after a
                    # reconnect): already accepted, ack without replay.
                    self._duplicate_total += 1
                    self._m_duplicates.inc()
                    return Admission(
                        accepted=False,
                        shard=name,
                        case_seq=seq,
                        duplicate=True,
                        reason="already accepted",
                    )
                if seq != count + 1:
                    # A gap: earlier entries of the case were refused
                    # or lost.  Refuse this one too — the sender must
                    # redeliver in order.
                    self._busy_total += 1
                    self._m_busy.inc()
                    return Admission(
                        accepted=False,
                        shard=name,
                        case_seq=seq,
                        busy=True,
                        retry_after_s=RETRY_AFTER_S,
                        reason=(
                            f"sequence gap for case {case!r}: expected "
                            f"{count + 1}, got {seq}"
                        ),
                    )
            shard = self._shards[name]
            # Admission control, before the WAL append (the acceptance
            # point).  Every put happens under this lock, so the depth
            # can only shrink before the put below: it has room.
            depth = shard.queue.qsize()
            if depth >= self._busy_wm:
                self._busy_total += 1
                self._m_busy.inc()
                self._set_overload(name, "busy", depth)
                return Admission(
                    accepted=False,
                    shard=name,
                    busy=True,
                    retry_after_s=RETRY_AFTER_S,
                    reason=f"shard {name} over its busy watermark",
                )
            self._set_overload(name, "ok", depth)
            case_seq = count + 1
            wal_seq = 0
            wal = self._wals.get(name)
            if wal is not None:
                # The acceptance point: not in the WAL => never acked.
                try:
                    wal_seq = wal.append(entry, case_seq)
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
                    self._pending.append((entry, name, wal_seq))
                    full = len(self._pending) >= self.config.flush_max_batch
            shard.queue.put_nowait(("entry", entry, subscriber, ctx))
        if full:
            self.flush()
        return Admission(
            accepted=True, shard=name, case_seq=case_seq, wal_seq=wal_seq
        )

    def _set_overload(self, shard: str, level: str, depth: int) -> None:
        """Track a shard's admission level; emit transitions only."""
        previous = self._overload.get(shard, "ok")
        if previous == level:
            return
        self._overload[shard] = level
        self._tel.events.emit(
            SERVE_OVERLOAD,
            shard=shard,
            level=level,
            previous=previous,
            queue_depth=depth,
        )

    def case_trace(self, case: str) -> Optional[TraceContext]:
        """The case's root trace context (None untraced/unseen)."""
        with self._trace_lock:
            return self._case_traces.get(case)

    def barrier(self, callback: Callable[[], None]) -> bool:
        """Post a latch that invokes *callback* once all work submitted
        so far is processed; never blocks.

        The latch goes to every shard or to none: when some shard's
        queue is full, nothing is posted and this returns False — the
        caller retries after :data:`RETRY_AFTER_S`.  Serialized against
        supervised restarts: a barrier lands either before a restart
        (its latch is honored while draining the old shard's queue) or
        after (posted to the replacement, firing only once the rebuilt
        state is current) — never astride one.
        """
        with self._ingest_lock:
            capacity = self.config.queue_capacity
            if any(
                shard.queue.qsize() >= capacity
                for shard in self._shards.values()
            ):
                return False
            latch = _Barrier(len(self._shards), callback)
            for shard in self._shards.values():
                shard.queue.put_nowait(("barrier", latch))
        return True

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until every shard has drained its queue (test helper)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        done = threading.Event()
        while not self.barrier(done.set):
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(RETRY_AFTER_S)
        if deadline is None:
            return done.wait()
        return done.wait(max(0.0, deadline - time.monotonic()))

    def flush(self) -> None:
        """Hand the buffered entries to the store writer (async commit).

        Batches reach the writer in the order they leave the buffer, so
        the store keeps acceptance order however many threads flush.
        """
        if self._writer is None:
            return
        with self._pending_lock:
            pending, self._pending = self._pending, []
            if not pending:
                return
            batch = [entry for entry, _, _ in pending]
            # Per-shard WAL retirement floors: once this batch commits,
            # every WAL record at or below its shard's floor is stored.
            floors: dict[str, int] = {}
            for _, name, wal_seq in pending:
                if wal_seq:
                    floors[name] = max(floors.get(name, 0), wal_seq)
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
            self._writer.queue.put(("batch", batch, contexts, floors))

    def wal_commit(self) -> int:
        """Fsync every shard's WAL buffer (the ``sync`` durability ack).

        Returns the number of records made durable.  Safe (a no-op)
        without a WAL.
        """
        flushed = 0
        for wal in self._wals.values():
            flushed += wal.commit()
        if flushed:
            self._tel.events.emit(SERVE_WAL_COMMIT, records=flushed)
        return flushed

    @property
    def wal_enabled(self) -> bool:
        return bool(self._wals)

    def _durable_store_path(self) -> Optional[str]:
        """The store path when it survives this process (None otherwise)."""
        path = self.config.store_path
        if path is None or path == ":memory:":
            return None
        return path

    def _on_batch_durable(self, floors: dict[str, int]) -> None:
        """Store-writer callback: a batch committed; retire covered WAL.

        Only a *durable* store commit justifies deleting WAL segments —
        an in-memory store dies with the process, so its WAL is kept
        whole for recovery.
        """
        if self._durable_store_path() is None:
            return
        for name, seq in floors.items():
            wal = self._wals.get(name)
            if wal is None:
                continue
            removed = wal.retire(seq)
            if removed:
                self._tel.events.emit(
                    SERVE_WAL_RETIRED, shard=name, upto=seq, segments=removed
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
        while not event.wait(self.config.heartbeat_interval_s):
            if not writer.is_alive() or time.monotonic() >= deadline:
                return event.is_set()
        return True

    # -- supervision --------------------------------------------------------
    def _restart_shard(self, name: str, reason: str) -> None:
        """Replace a crashed or hung shard (the supervisor's repair verb).

        Within the restart budget the shard is rebuilt in place: a new
        monitor replays every entry of every case the shard owns from
        the store + WAL (only a router with a WAL supervises, so that
        union covers all accepted entries).  The
        case in flight when the shard died is the poison suspect — it is
        contained as FAILED/quarantined instead of replayed, so a
        deterministic killer cannot crash-loop the replacement.  Past
        the budget the shard is removed from the consistent-hash ring
        and its cases re-homed to the surviving shards the same way.
        """
        with self._ingest_lock:
            old = self._shards.get(name)
            if old is None or old.stopped or not self._accepting:
                return
            old.abandoned = True
            victim = old.current_case
            # Make every accepted entry readable before computing the
            # rebuild history: pending batches into the store (durability
            # barrier), WAL buffers onto disk.
            self.flush()
            self._writer_sync()
            for wal in self._wals.values():
                wal.commit()
            exclude = frozenset() if victim is None else frozenset({victim})
            histories, _ = collect_case_histories(
                self._durable_store_path(),
                self.config.wal_dir,
                include=lambda case: self._ring.shard_for(case) == name,
                exclude=exclude,
            )
            rebuild: list[tuple] = []
            if victim is not None:
                error = ReproError(
                    f"shard {name} {reason} while processing case "
                    f"{victim!r}; the case is quarantined as the poison "
                    f"suspect"
                )
                rebuild.append(("contain", victim, error))
                self._note_quarantined(victim, OutcomeKind.ERROR, str(error))
            replay = [
                item for history in histories.values()
                for item in _replay_items(history)
            ]
            rebuild.extend(replay)
            within_budget = self._restart_budget.record(name)
            if within_budget:
                replacement = _Shard(name, self._new_monitor(), self, rebuild)
                self._shards[name] = replacement
                replacement.start()
                self._m_restarts.inc(shard=name, reason=reason)
                self._tel.events.emit(
                    SERVE_SHARD_RESTARTED,
                    shard=name,
                    reason=reason,
                    victim=victim,
                    cases=len(histories),
                    entries=len(replay),
                )
            else:
                # Beyond repair: hand the shard's cases to the survivors
                # through the ring.  Its WAL stays on disk (recovery may
                # still need those records) but is closed cleanly.
                self._ring.remove_shard(name)
                del self._shards[name]
                self._overload.pop(name, None)
                wal = self._wals.pop(name, None)
                if wal is not None:
                    wal.close()
                for item in rebuild:
                    case = item[1] if item[0] == "contain" else item[1].case
                    owner = self._shards[self._ring.shard_for(case)]
                    owner.queue.put(item)
                self._reassigned.append(name)
                self._m_restarts.inc(shard=name, reason="reassign")
                self._tel.events.emit(
                    SERVE_SHARD_REASSIGNED,
                    shard=name,
                    reason=reason,
                    cases=len(histories),
                )
            # Honor barriers stranded in the abandoned queue and drop its
            # entries — the rebuild history covers them.
            while True:
                try:
                    stranded = old.queue.get_nowait()
                except queue.Empty:
                    break
                if stranded[0] == "barrier":
                    stranded[1].arrive()
            try:
                # If the old thread was merely hung it will eventually
                # wake, notice it is abandoned, and exit on this.
                old.queue.put_nowait(("stop",))
            except queue.Full:  # pragma: no cover - queue was just drained
                pass

    # -- drain -------------------------------------------------------------
    def drain(self) -> DrainReport:
        """Stop intake, finish all queued work, flush.

        Idempotent; after it returns the shard threads have exited and
        monitor state may be read from any thread.
        """
        if self._drained:
            return self._drain_report
        if self._supervisor is not None:
            self._supervisor.stop()
        self._accepting = False
        for shard in self._shards.values():
            shard.queue.put(("stop",))
        for shard in self._shards.values():
            shard.join()
        self.flush()
        intact: Optional[bool] = None
        if self._writer is not None:
            self._writer.queue.put(None)
            self._writer.join()
            intact = self._writer.intact
        for wal in self._wals.values():
            if intact:
                # A clean drain with an intact store owns every record;
                # the WAL has nothing left to recover.
                wal.reset()
            wal.close()
        if self._tmp_automata is not None:
            self._tmp_automata.cleanup()
            self._tmp_automata = None
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

    @property
    def shard_names(self) -> tuple[str, ...]:
        return tuple(self._shards)

    def case_sequence(self, case: str) -> int:
        """Accepted entries of *case* so far (the dedup high-water mark)."""
        with self._ingest_lock:
            return self._case_seq.get(case, 0)

    def quarantined_cases(self) -> dict[str, OutcomeKind]:
        """Cases the service took out of rotation, with their failure kind."""
        with self._quarantined_lock:
            return dict(self._quarantined)

    @property
    def registry(self) -> ProcessRegistry:
        """The shared registry (the control plane maps tenants over it)."""
        return self._registry

    # -- quarantine triage (the control plane's verbs) -----------------------
    def requeue_case(self, case: str, wait_s: float = 5.0) -> RequeueResult:
        """Give a quarantined case a fresh from-scratch replay.

        The replay runs on the case's owning shard thread (queued like
        any other item, so it is ordered against the case's live
        entries).  Admission mirrors :meth:`submit`: a draining router
        or an unknown/not-quarantined case is refused with a reason, a
        shard over its busy watermark answers ``busy`` with the usual
        ``retry_after_s`` hint.  Blocks up to *wait_s* for the replay's
        outcome; on timeout the requeue still completes on the shard —
        only the synchronous answer is partial.  The shard counts
        ``serve_requeues_total{outcome}`` when the replay finishes.
        """
        done = threading.Event()
        holder: dict = {}
        with self._ingest_lock:
            if not self._accepting:
                return RequeueResult(
                    case, accepted=False, reason="the service is draining"
                )
            with self._quarantined_lock:
                quarantined = case in self._quarantined
            if not quarantined:
                self._m_requeues.inc(outcome="refused")
                return RequeueResult(
                    case,
                    accepted=False,
                    reason=f"case {case!r} is not quarantined",
                )
            name = self._ring.shard_for(case)
            shard = self._shards[name]
            if shard.queue.qsize() >= self._busy_wm:
                self._m_requeues.inc(outcome="busy")
                return RequeueResult(
                    case,
                    accepted=False,
                    busy=True,
                    retry_after_s=RETRY_AFTER_S,
                    reason=f"shard {name} over its busy watermark",
                    shard=name,
                )
            # Popping the note *before* the replay lets the shard re-file
            # it if the failure reproduces; _note_quarantined is
            # first-write-wins, so the slot must be free.
            with self._quarantined_lock:
                self._quarantined.pop(case, None)
            shard.queue.put_nowait(("requeue", case, done, holder))
        done.wait(wait_s)
        return RequeueResult(
            case,
            accepted=True,
            shard=name,
            state=holder.get("state"),
            replayed_entries=int(holder.get("replayed", 0)),
        )

    def dismiss_quarantined(self, case: str) -> Optional[OutcomeKind]:
        """Drop a case from the quarantine list (operator accepts the loss).

        Returns the failure kind the case was quarantined with, or
        ``None`` if it was not quarantined.  The monitor's terminal
        state is untouched — dismissal is triage bookkeeping, not an
        acquittal; the control plane records it durably in the store's
        control log.  A dismissed case is never filed again.
        """
        with self._quarantined_lock:
            kind = self._quarantined.pop(case, None)
            if kind is not None:
                self._dismissed.add(case)
        if kind is not None:
            self._m_dismissals.inc()
        return kind

    def iter_results(
        self, cases: Optional[Iterable] = None, digests: bool = True
    ) -> Iterator[dict]:
        """Per-case records, each read from its shard as it is yielded.

        Without *cases*: every observed case, shard by shard in
        first-seen order.  With *cases*: the requested ids in request
        order, duplicates collapsed, ids no shard holds (non-strings
        included) dropped.  A consumer that writes each record out
        before pulling the next holds one at a time — the streamed
        ``results`` reply and the drain-time ``final`` events do.
        """
        shards = list(self._shards.values())  # a reassignment may shrink it
        if cases is None:
            for shard in shards:
                for case in shard.monitor.cases():
                    yield shard.record(case, digest=digests)
            return
        seen: set[str] = set()
        for case in cases:
            if not isinstance(case, str) or case in seen:
                continue
            seen.add(case)
            for shard in shards:
                if shard.monitor.case_state(case) is not None:
                    yield shard.record(case, digest=digests)
                    break

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
        """One case's :meth:`results` record, read now from its shard.

        A case the shard does not hold (never seen, or between a
        requeue's reset and replay) reads as all-``None`` fields.
        """
        return self._shards[self._ring.shard_for(case)].record(case)

    def case_findings(self, case: str) -> list[dict]:
        """One case's findings since it was (re)opened, read now from its
        owning shard's engine (``[]`` for a case it does not hold)."""
        monitor = self._shards[self._ring.shard_for(case)].monitor
        return [finding.as_dict() for finding in monitor.case_findings(case)]

    def refresh_shard_gauges(self) -> dict[str, dict]:
        """Per-shard load detail; also updates the shard gauges.

        Called at scrape time (``/healthz``, ``/metrics``, the ``status``
        op) so the ``serve_shard_queue_depth`` /
        ``serve_shard_inflight_cases`` (and WAL lag) gauges are current
        whenever anybody looks.
        """
        detail: dict[str, dict] = {}
        # Snapshots: the supervisor may reassign a shard meanwhile.
        for name, shard in list(self._shards.items()):
            depth = shard.queue.qsize()
            inflight = shard.inflight_cases
            self._m_queue_depth.set(depth, shard=name)
            self._m_inflight.set(inflight, shard=name)
            detail[name] = {
                "queue_depth": depth,
                "inflight_cases": inflight,
                "entries_observed": shard.entries_observed,
            }
            wal = self._wals.get(name)
            if wal is not None:
                stats = wal.stats()
                self._m_wal_unflushed_records.set(
                    stats["unflushed_records"], shard=name
                )
                self._m_wal_unflushed_bytes.set(
                    stats["unflushed_bytes"], shard=name
                )
                self._m_wal_segments.set(stats["segments"], shard=name)
        return detail

    def statistics(self) -> dict[str, object]:
        """A live snapshot for the ``status`` op and ``/healthz``."""
        per_state: dict[str, int] = {state.value: 0 for state in CaseState}
        entries = 0
        for shard in list(self._shards.values()):
            stats = shard.monitor.statistics()
            entries += stats.pop("entries", 0)
            for state, count in stats.items():
                per_state[state] = per_state.get(state, 0) + count
        wals = list(self._wals.items())
        wal_stats = {name: wal.stats() for name, wal in wals}
        recovery: dict[str, object] = {"recovered": False}
        if self.recovery_report is not None:
            recovery = {"recovered": True, **self.recovery_report.to_dict()}
        return {
            "shards": len(self._shards),
            "entries_received": self._received,
            "entries_observed": entries,
            "entries_written": self.entries_written,
            "cases": per_state,
            "quarantined_cases": len(self._quarantined),
            "dead_letters": len(self.dead_letters),
            "draining": self.draining,
            "shard_detail": self.refresh_shard_gauges(),
            "backpressure": {
                "busy": self._busy_total,
                "duplicates": self._duplicate_total,
                "busy_watermark": self._busy_wm,
                "levels": dict(self._overload),
            },
            "wal": {
                "enabled": bool(self._wals),
                "records": sum(s["records"] for s in wal_stats.values()),
                "unflushed_records": sum(
                    s["unflushed_records"] for s in wal_stats.values()
                ),
                "unflushed_bytes": sum(
                    s["unflushed_bytes"] for s in wal_stats.values()
                ),
                "segments": sum(s["segments"] for s in wal_stats.values()),
                "shards": wal_stats,
            },
            "supervisor": {
                "enabled": self._supervisor is not None,
                "restarts": dict(self._restart_budget.counts),
                "reassigned_shards": list(self._reassigned),
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
        operator dismissed it."""
        with self._quarantined_lock:
            if case in self._quarantined or case in self._dismissed:
                return
            self._quarantined[case] = kind
        self._m_quarantined.inc(kind=kind.value)
        self._tel.events.emit(
            CASE_QUARANTINED, case=case, kind=kind.value, detail=detail
        )
