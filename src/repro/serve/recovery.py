"""Crash recovery for the streaming audit service.

The contract a router with a write-ahead log keeps: after a ``kill -9``
(or any other unclean death), ``repro serve`` restarted on the same
store and WAL directory reaches a monitor state **byte-identical** (per-case
:func:`~repro.testing.differential.canonical_digest`) to a run that was
never interrupted.  :meth:`~repro.serve.core.ShardRouter.start` resumes
that record before it accepts anything, and a supervised shard restart
rebuilds its cases from it.  The ingredients:

* the **audit store** is the hash-chained long-term record — everything
  a committed batch flush persisted, in acceptance order, which is the
  order it is read back in (``seq``, never timestamps);
* the **WAL delta** is everything accepted after the last committed
  flush — each shard's write-ahead segments, minus the records already
  in the store;
* the per-case **entry sequence numbers** carried by every WAL record
  make the merge idempotent: a record whose ``case_seq`` is at or below
  the case's store count is a duplicate (the store flush committed but
  its WAL retirement didn't happen before the crash) and is skipped,
  never double-counted.

Repeated partial resumes are themselves idempotent: a resume only
*reads* the store and WAL and re-buffers the delta for a fresh flush,
so crashing during one and resuming again converges on the same state
(the property suite drives exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.audit.model import LogEntry
from repro.audit.store import AuditStore
from repro.serve.wal import WalCorruptionError, read_wal, wal_records_by_case


@dataclass
class CaseHistory:
    """One case's accepted entries, split by where they survived."""

    case: str
    store_entries: list[LogEntry] = field(default_factory=list)
    wal_entries: list[LogEntry] = field(default_factory=list)

    @property
    def entries(self) -> list[LogEntry]:
        """The full history, store prefix first, in acceptance order."""
        return self.store_entries + self.wal_entries


@dataclass(frozen=True)
class HistoryScan:
    """What :func:`collect_case_histories` read and skipped."""

    store_entries: int
    wal_records: int
    wal_duplicates: int  # WAL records already covered by the store
    torn_segments: bool


@dataclass(frozen=True)
class RecoveryReport:
    """What a router's start-up resume reconstructed."""

    store_entries: int
    wal_records: int
    replayed: int  # entries fed back into monitors (store + delta)
    duplicates: int  # WAL records skipped as already stored
    cases: int
    torn_segments: bool
    store_intact: Optional[bool]
    duration_s: float

    def to_dict(self) -> dict:
        return {
            "store_entries": self.store_entries,
            "wal_records": self.wal_records,
            "replayed": self.replayed,
            "duplicates": self.duplicates,
            "cases": self.cases,
            "torn_segments": self.torn_segments,
            "store_intact": self.store_intact,
            "duration_s": round(self.duration_s, 6),
        }


def collect_case_histories(
    store_path: Optional[str],
    wal_dir: Optional[str],
    include: Optional[Callable[[str], bool]] = None,
    exclude: frozenset[str] = frozenset(),
) -> tuple[dict[str, CaseHistory], HistoryScan]:
    """Merge the store and the WAL delta into per-case histories.

    The store is the authoritative prefix of every case, read in
    acceptance (``seq``) order; WAL records
    whose ``case_seq`` falls at or below the case's store count are
    duplicates of committed entries and skipped.  The surviving delta
    must continue each case contiguously — a *gap* in sealed WAL data
    means records vanished from the middle of a log that was fsynced,
    which no crash produces (torn tails only lose suffixes), so it
    raises :class:`~repro.serve.wal.WalCorruptionError` rather than
    silently auditing a hole.

    ``include`` filters cases (the shard supervisor passes its ring
    predicate); ``exclude`` drops specific cases (the poison suspect).
    """
    histories: dict[str, CaseHistory] = {}
    store_count = 0
    if store_path is not None:
        with AuditStore(store_path) as store:
            for entry in store.iter_entries():
                case = entry.case
                if case in exclude or (include is not None and not include(case)):
                    continue
                histories.setdefault(case, CaseHistory(case)).store_entries.append(
                    entry
                )
                store_count += 1
    wal_count = 0
    duplicates = 0
    torn = False
    if wal_dir is not None:
        result = read_wal(wal_dir)
        torn = result.torn_tail
        for case, records in wal_records_by_case(result.records).items():
            if case in exclude or (include is not None and not include(case)):
                wal_count += len(records)
                continue
            history = histories.setdefault(case, CaseHistory(case))
            stored = len(history.store_entries)
            # A case's records may span a shard-count change (old shard
            # names on disk), so sort by the per-case sequence — the one
            # ordering that is crash- and topology-invariant.
            expected = stored + 1
            for record in sorted(records, key=lambda r: r.case_seq):
                wal_count += 1
                if record.case_seq <= stored:
                    duplicates += 1
                    continue
                if record.case_seq != expected:
                    raise WalCorruptionError(
                        f"case {case!r}: WAL continues at entry "
                        f"{record.case_seq} but the store + delta end at "
                        f"{expected - 1}; sealed records are missing"
                    )
                history.wal_entries.append(record.entry)
                expected += 1
    return histories, HistoryScan(
        store_entries=store_count,
        wal_records=wal_count,
        wal_duplicates=duplicates,
        torn_segments=torn,
    )
