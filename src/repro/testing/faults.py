"""Deterministic fault injection for the audit pipeline.

The resilience layer (:mod:`repro.core.resilience`, and the process
pool of :mod:`repro.core.parallel`) promises that a batch audit
completes with a verdict for every case no matter what individual cases
do to their workers.  That promise is only worth something if it is
*tested* against the failure modes it claims to survive — this module
supplies those failure modes, reproducibly:

* :class:`FaultPlan` + :class:`FaultInjector` — a picklable
  ``checker_wrapper`` (the middleware seam of
  :class:`repro.core.auditor.PurposeControlAuditor`, which a parallel
  audit hands to every pool worker's auditor, and of
  :class:`repro.core.monitor.OnlineMonitor`) that makes the checker
  **crash its process** (``os._exit``) on the Nth case it starts,
  **raise** an :class:`InjectedFaultError`, or **sleep** per fed entry
  to trip the per-case wall-clock budget;
* :func:`corrupt_xes_event` / :func:`corrupt_store_row` — entry
  corruptors that poison exactly one record at an ingestion boundary,
  for quarantine tests;
* per-process case counters (:func:`cases_started`,
  :func:`reset_fault_counters`) keyed by ``(pid, plan name)`` so forked
  workers count from zero and "crash on the 3rd case *this worker*
  starts" means what it says.

Crashes guard on ``only_in_workers`` (default): the plan records the pid
that built it (``armed_pid``) and ``os._exit`` only fires in a
*different* process.  That way the parent's serial fallback — and the
test process itself — replays the case normally instead of dying, which
is exactly the recovery path the harness exists to exercise.  Use
``raise_on_case`` to fault the serial path.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.audit.model import AuditTrail, LogEntry
from repro.core.compliance import (
    ComplianceChecker,
    ComplianceResult,
    ComplianceSession,
)
from repro.errors import ReproError


class InjectedFaultError(ReproError):
    """The failure a :class:`FaultPlan` with ``raise_on_case`` injects."""


# (pid, plan name) -> number of cases started.  Keyed by pid so a forked
# worker inheriting the parent's module state still counts from zero.
_CASE_COUNTS: dict[tuple[int, str], int] = {}


def cases_started(plan_name: str = "default") -> int:
    """How many cases *this process* started under *plan_name*."""
    return _CASE_COUNTS.get((os.getpid(), plan_name), 0)


def reset_fault_counters(plan_name: Optional[str] = None) -> None:
    """Forget case counts (all plans, or just *plan_name*) in this process."""
    pid = os.getpid()
    for key in [k for k in _CASE_COUNTS if k[0] == pid]:
        if plan_name is None or key[1] == plan_name:
            del _CASE_COUNTS[key]


@dataclass(frozen=True)
class FaultPlan:
    """What to break, and when.  Picklable; crosses the process boundary.

    ``crash_on_case`` / ``raise_on_case`` are 1-based indices over the
    cases a single process starts (each process counts independently).
    ``slow_s`` sleeps before every fed entry — pair it with
    ``case_timeout_s`` to trip TIMEOUT outcomes deterministically.
    """

    name: str = "default"
    crash_on_case: Optional[int] = None
    raise_on_case: Optional[int] = None
    slow_s: float = 0.0
    exit_code: int = 17
    only_in_workers: bool = True
    armed_pid: int = field(default_factory=os.getpid)

    def _next_case(self) -> int:
        key = (os.getpid(), self.name)
        count = _CASE_COUNTS.get(key, 0) + 1
        _CASE_COUNTS[key] = count
        return count

    def _may_crash(self) -> bool:
        return not self.only_in_workers or os.getpid() != self.armed_pid

    def on_case_start(self, purpose: str) -> None:
        """Apply case-level faults; called once per check/session."""
        count = self._next_case()
        if self.crash_on_case is not None and count == self.crash_on_case:
            if self._may_crash():
                os._exit(self.exit_code)  # simulate a segfault / OOM kill
        if self.raise_on_case is not None and count == self.raise_on_case:
            raise InjectedFaultError(
                f"injected fault on case #{count} (purpose {purpose!r}, "
                f"pid {os.getpid()})"
            )

    def on_entry(self) -> None:
        """Apply entry-level faults; called before every fed entry."""
        if self.slow_s > 0.0:
            time.sleep(self.slow_s)


class FaultySession:
    """A :class:`ComplianceSession` that misbehaves per the plan."""

    def __init__(self, session: ComplianceSession, plan: FaultPlan):
        self._session = session
        self._plan = plan

    def feed(self, entry: LogEntry) -> bool:
        self._plan.on_entry()
        return self._session.feed(entry)

    @property
    def compliant(self) -> bool:
        return self._session.compliant

    @property
    def may_continue(self) -> bool:
        return self._session.may_continue

    @property
    def frontier(self):
        return self._session.frontier

    @property
    def steps(self):
        return self._session.steps

    @property
    def entries_fed(self) -> int:
        return self._session.entries_fed

    def result(self) -> ComplianceResult:
        return self._session.result()


class FaultyChecker:
    """A :class:`ComplianceChecker` stand-in that misbehaves per the plan.

    Delegates every verdict to the wrapped checker, so when the plan is
    inert (or its trigger has passed) results are byte-identical to the
    unwrapped checker's.
    """

    def __init__(
        self, checker: ComplianceChecker, plan: FaultPlan, purpose: str
    ):
        self._checker = checker
        self._plan = plan
        self._purpose = purpose

    @property
    def encoded(self):
        return self._checker.encoded

    @property
    def engine(self):
        return self._checker.engine

    @property
    def purpose(self) -> str:
        return self._checker.purpose

    def session(self) -> FaultySession:
        self._plan.on_case_start(self._purpose)
        return FaultySession(self._checker.session(), self._plan)

    def check(
        self, trail: AuditTrail | Iterable[LogEntry]
    ) -> ComplianceResult:
        self._plan.on_case_start(self._purpose)
        self._plan.on_entry()
        return self._checker.check(trail)


@dataclass(frozen=True)
class FaultInjector:
    """The picklable ``checker_wrapper``: wraps checkers of the targeted
    purposes in :class:`FaultyChecker`.

    ``purposes=None`` targets every purpose.  Pass an instance as
    ``checker_wrapper=`` to :class:`~repro.core.auditor.PurposeControlAuditor`
    (with ``workers=N``, every pool worker gets it) or
    :class:`~repro.core.monitor.OnlineMonitor`.
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    purposes: Optional[tuple[str, ...]] = None

    def __call__(
        self, checker: ComplianceChecker, purpose: str
    ) -> ComplianceChecker | FaultyChecker:
        if self.purposes is not None and purpose not in self.purposes:
            return checker
        return FaultyChecker(checker, self.plan, purpose)


# ---------------------------------------------------------------------------
# serving-side chaos (for the crash-safe-serve suite)


def disk_full_hook(after_ops: int = 0, phases: tuple[str, ...] = ("append",)):
    """A :class:`~repro.serve.wal.WalWriter` ``fault_hook`` simulating ENOSPC.

    The hook counts the WAL operations in *phases* (``"append"`` and/or
    ``"fsync"``) and raises :class:`OSError` (errno ENOSPC) on every one
    past *after_ops* — so the first ``after_ops`` writes succeed and the
    disk is then "full" forever.  The router must reject (never ack) the
    affected entries.
    """
    import errno

    state = {"ops": 0}

    def hook(phase: str) -> None:
        if phase not in phases:
            return
        state["ops"] += 1
        if state["ops"] > after_ops:
            raise OSError(errno.ENOSPC, "injected disk full (WAL)")

    return hook


def corrupt_wal_tail(path, mode: str = "truncate", drop_bytes: int = 7) -> None:
    """Tear the tail of a WAL segment the way a crash would.

    * ``truncate`` — drop the final *drop_bytes* bytes (a record cut
      mid-write); readers must salvage every complete record before it;
    * ``garbage`` — append a partial frame of junk (a write that never
      got its payload out);
    * ``flip`` — flip one bit in the final record's payload so its CRC
      check fails (a torn sector).

    All three must read back as a *torn tail* in the final segment —
    tolerated, never raised — and as :class:`~repro.serve.wal.
    WalCorruptionError` if the same segment is later read strictly.
    """
    from pathlib import Path

    target = Path(path)
    data = target.read_bytes()
    if mode == "truncate":
        target.write_bytes(data[: max(8, len(data) - drop_bytes)])
    elif mode == "garbage":
        target.write_bytes(data + b"\xde\xad\xbe")
    elif mode == "flip":
        if len(data) <= 8:
            raise ValueError("segment has no record bytes to flip")
        flipped = bytearray(data)
        flipped[-1] ^= 0x01
        target.write_bytes(bytes(flipped))
    else:
        raise ValueError(f"unknown corruption mode: {mode!r}")


# ---------------------------------------------------------------------------
# entry corruptors (for quarantine tests)


def corrupt_xes_event(
    document: str, timestamp: str, replacement: str = "not-a-timestamp"
) -> str:
    """Replace one event timestamp in an XES document with garbage.

    *timestamp* is the exact ``value=`` text of the target event's
    ``time:timestamp`` attribute; the corrupted document still parses as
    XML, so only that one event lands in quarantine.
    """
    needle = f'value="{timestamp}"'
    if needle not in document:
        raise ValueError(f"timestamp {timestamp!r} not found in document")
    return document.replace(needle, f'value="{replacement}"', 1)


def corrupt_store_row(store, seq: int, status: str = "not-a-status") -> None:
    """Poison one stored row so it no longer decodes as a ``LogEntry``.

    Uses :meth:`~repro.audit.store.AuditStore.tamper` under the hood, so
    the hash chain breaks too — a quarantine-mode read surfaces the row
    as a dead letter instead of failing the batch.
    """
    store.tamper(seq, status=status)


def corrupt_artifact(path, mode: str = "truncate") -> None:
    """Damage a saved ``RPTB`` automaton artifact in a chosen way.

    The artifact reader (:func:`repro.compile.load_table`) must reject
    every corruption with a reason, and the cache must treat it as a
    miss — log ``compile.artifact_invalid`` and start a fresh automaton
    — never as an audit failure.  Modes (and the reason each yields):

    * ``truncate`` — drop the tail of the cell region, as a crash during
      a non-atomic copy would (``truncated``);
    * ``garbage`` — overwrite with bytes that are no artifact at all
      (``format``);
    * ``empty`` — leave a zero-byte file behind (``truncated``);
    * ``version`` — bump the ``uint32`` after the magic past the
      reader's version (``version``);
    * ``bitflip`` — flip one bit inside the cell region, caught by the
      prefix's SHA-256 (``tamper``);
    * ``pool`` — swap the case of one letter inside a pool event string
      in the header, which stays valid JSON (``tamper``);
    * ``fingerprint`` — rewrite the header's fingerprint in place, same
      length, and re-seal the checksum, so only the identity check fires
      (``fingerprint``).
    """
    import hashlib
    import json
    from pathlib import Path

    from repro.compile.table import TABLE_PREFIX

    target = Path(path)
    data = bytearray(target.read_bytes())
    header_start = header_end = TABLE_PREFIX.size
    if len(data) >= TABLE_PREFIX.size:
        header_end += int.from_bytes(data[8:12], "little")
    if mode == "truncate":
        # Drop the tail of the cell region (or half the file when the
        # header alone fills it) — the declared cell length no longer fits.
        cut = max(12, (header_end + len(data)) // 2)
        target.write_bytes(bytes(data[: min(cut, len(data) - 1)]))
    elif mode == "garbage":
        target.write_bytes(b"\x00not a table\xff")
    elif mode == "empty":
        target.write_bytes(b"")
    elif mode == "version":
        data[4:8] = (2**31).to_bytes(4, "little")
        target.write_bytes(bytes(data))
    elif mode == "bitflip":
        if len(data) <= header_end:
            raise ValueError("table has no cell region to flip")
        data[-1] ^= 0x40  # one bit, deep in the cell region
        target.write_bytes(bytes(data))
    elif mode == "pool":
        header = json.loads(data[header_start:header_end].decode("utf-8"))
        event = next(
            (e for _, _, events, _ in header["pool"] for e in events), None
        )
        if event is None:
            raise ValueError("table pool holds no event string to flip")
        pool_at = data.index(b'"pool":', header_start)
        at = data.index(json.dumps(event).encode("utf-8"), pool_at) + 1
        while not chr(data[at]).isalpha():
            at += 1
        data[at] ^= 0x20  # swap the letter's case
        target.write_bytes(bytes(data))
    elif mode == "fingerprint":
        header = json.loads(data[header_start:header_end].decode("utf-8"))
        original = header["fingerprint"]
        replacement = ("0" if original[:1] != "0" else "1") * len(original)
        data = bytearray(
            bytes(data).replace(
                original.encode("utf-8"), replacement.encode("utf-8"), 1
            )
        )
        # Re-seal: the checksum is the prefix's last 32 bytes.
        data[header_start - 32:header_start] = hashlib.sha256(
            data[header_start:]
        ).digest()
        target.write_bytes(bytes(data))
    else:
        raise ValueError(f"unknown corruption mode: {mode!r}")
