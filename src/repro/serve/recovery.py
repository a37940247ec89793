"""Crash recovery for the streaming audit service.

The contract a router with a durable store keeps: restarted on the same
store (and write-ahead log directory, if it has one) after a drain or a
``kill -9``, ``repro serve`` reaches a monitor state **byte-identical**
(per-case :func:`~repro.core.compliance.canonical_digest`) to a run
that was never interrupted.  :meth:`~repro.serve.core.ShardRouter.start`
resumes that record before it accepts anything.  The ingredients:

* the **audit store** is the hash-chained long-term record — everything
  a committed batch flush persisted, in acceptance order, which is the
  order it is read back in (``seq``, never timestamps);
* the **WAL tail** is everything accepted after the last committed
  flush — the write-ahead log's records, minus those already in the
  store (:func:`wal_delta`) — kept in the order the log holds it, so
  the resume commits it to the store in acceptance order;
* the per-case **entry sequence numbers** carried by every WAL record
  make the merge idempotent: a record whose ``case_seq`` is at or below
  the case's store count is a duplicate (the store flush committed but
  its WAL retirement didn't happen before the crash) and is skipped,
  never double-counted.

Repeated partial resumes are themselves idempotent: a resume only
*reads* the store and WAL, commits the tail, and removes the log only
once that commit is durable, so crashing during one and resuming again
converges on the same state (the property suite drives exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.audit.model import LogEntry
from repro.serve.wal import WalCorruptionError, read_wal, wal_records_by_case


@dataclass(frozen=True)
class WalDelta:
    """What :func:`wal_delta` read from a log directory (by default:
    nothing, as without a log)."""

    #: The records the store lacks, in log order, which is the order
    #: their entries were accepted.
    entries: tuple[LogEntry, ...] = ()
    records: int = 0
    duplicates: int = 0  # records the store already holds
    torn: bool = False


@dataclass(frozen=True)
class RecoveryReport:
    """What a router's start-up resume reconstructed."""

    store_entries: int
    wal_records: int
    replayed: int  # entries fed back into monitors (store + delta)
    duplicates: int  # WAL records skipped as already stored
    cases: int
    torn_segments: bool
    store_intact: bool  # a start refuses a store that fails its check
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


def wal_delta(wal_dir: str, stored: Mapping[str, int]) -> WalDelta:
    """The log's records past what the store holds of each case.

    *stored* counts each case's store rows.  A record whose
    ``case_seq`` is at or below its case's count is a duplicate of a
    committed entry and skipped.  The rest must continue each case
    contiguously — a *gap* in sealed WAL data means records vanished
    from the middle of a log that was fsynced, which no crash produces
    (torn tails only lose suffixes), so it raises
    :class:`~repro.serve.wal.WalCorruptionError` rather than silently
    auditing a hole.
    """
    result = read_wal(wal_dir)
    fresh: dict[str, list[LogEntry]] = {}
    duplicates = 0
    for case, records in wal_records_by_case(result.records).items():
        have = stored.get(case, 0)
        # A case's records may span the logs of an older directory
        # (several names on disk), so sort by the per-case sequence —
        # the one ordering every log agrees on.
        expected = have + 1
        for record in sorted(records, key=lambda r: r.case_seq):
            if record.case_seq <= have:
                duplicates += 1
                continue
            if record.case_seq != expected:
                raise WalCorruptionError(
                    f"case {case!r}: WAL continues at entry "
                    f"{record.case_seq} but the store + delta end at "
                    f"{expected - 1}; sealed records are missing"
                )
            fresh.setdefault(case, []).append(record.entry)
            expected += 1
    # The delta in log order.  Each delta record takes the next of its
    # case's entries, so a case stays in its own order even where its
    # records span several logs.
    remaining = {case: iter(entries) for case, entries in fresh.items()}
    delta = tuple(
        next(remaining[record.case])
        for record in result.records
        if record.case_seq > stored.get(record.case, 0)
    )
    return WalDelta(
        entries=delta,
        records=len(result.records),
        duplicates=duplicates,
        torn=result.torn_tail,
    )
