"""The write-ahead ingest log of the streaming audit service.

The audit is only as trustworthy as the trail it replays: an entry the
daemon *accepted* and then lost to a crash is a silent hole in the
record of processing — exactly the accountability gap the paper's
a-posteriori audit exists to close.  The durable audit store is the
record every start resumes; the WAL only closes the gap in front of it.
Every accepted wire entry is appended here **before it is
acknowledged**, so after a ``kill -9`` the union of the audit store
(the batched, hash-chained long-term record) and the WAL's tail is
precisely the set of acknowledged entries, and a router restarted on
them (:meth:`repro.serve.core.ShardRouter.start`) rebuilds in-flight
monitor state byte-identically to an uninterrupted run.

Design (one log per directory; its segments are named ``ingest-N.wal``):

* **CRC-framed records** — each record is ``<u32 payload length>
  <u32 crc32(payload)> <payload>``; the payload is one compact JSON
  object carrying the WAL sequence number, the case id, the per-case
  entry sequence number, and, under ``"e"``, the entry op itself: the
  line the client sent, or the entry encoded by
  :func:`~repro.serve.protocol.entry_to_message` when it came without
  one (an ``xes`` document, an in-process submit).
  A reader decodes ``"e"`` with the wire decoder, which ignores the
  line's other keys (``seq``, ``traceparent``).
* **Batched fsync** — appends land in a process-local buffer (a plain
  ``bytearray``: no syscall, no GIL release, so the router's ingest
  lock is never held across I/O); every ``fsync_batch`` records the
  buffer drains to the unbuffered segment file in one raw write, so a
  *process* crash loses at most one batch.  ``commit()`` — driven by
  the router's flush timer and the ``sync`` durability barrier —
  drains + fsyncs; only then is an entry *durably* acknowledged.  The
  expensive fsync never runs inside the ingest path.
* **Segment rotation** — segments seal at ``segment_max_bytes`` and a
  new one opens, so retirement is whole-file deletion, never in-place
  truncation of live data.
* **Retirement after store commit** — the router calls
  :meth:`WalWriter.retire` with the highest WAL sequence the batched
  store flush just committed; only sealed segments entirely at or
  below that floor are deleted.  A record is therefore always in the
  WAL, in the store, or both — never in neither.
* **One life per log** — a writer starts in a directory that holds no
  segment, at seq 1; it never continues an older log.  A start reads
  the old log once (:func:`read_wal`), commits what the store lacks,
  and only then removes every segment (:func:`remove_segments`); so
  does a clean drain.
* **Truncated-tail tolerance** — a crash (or disk-full) mid-append
  leaves a torn final record; readers stop cleanly at the first bad
  frame of the *last* segment instead of raising.  A bad frame in any
  earlier segment is real corruption and raises
  :class:`WalCorruptionError` — those bytes were fsynced and sealed.
* **Older directories** — a daemon that split its cases over several
  logs left segments under other names (``shard-0-N.wal`` …);
  :func:`read_wal` reads every name it finds, each as its own log.

Format and recovery protocol are documented in ``docs/serving.md``
(operator view) and ``docs/robustness.md`` (failure model).
"""

from __future__ import annotations

import json
import os
import re
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.audit.model import LogEntry
from repro.errors import ReproError
from repro.serve.protocol import entry_from_message, entry_to_message

#: First bytes of every segment file (8 bytes: name + format version).
MAGIC = b"RPWAL01\n"

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)

#: Upper bound on one record's payload — anything larger is a torn or
#: corrupt length field, not a real entry.
_MAX_PAYLOAD = 1 << 24

#: One encoder for the whole module: ``json.dumps(..., separators=...)``
#: builds a fresh ``JSONEncoder`` per call, which is ~40% of the encode
#: cost on the append hot path.  ``entry_to_message`` emits only JSON
#: natives, so no ``default`` hook is needed.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode

_SEGMENT_RE = re.compile(r"^(?P<name>.+)-(?P<index>\d{8})\.wal$")

#: The segment name of the service's one log.
LOG_NAME = "ingest"


class WalError(ReproError):
    """The write-ahead log could not be written or read."""


class WalCorruptionError(WalError):
    """A sealed (fsynced) WAL region failed its framing or CRC check."""


@dataclass(frozen=True)
class WalRecord:
    """One accepted entry as the WAL remembers it."""

    wal_seq: int  # monotone per log, assigned at append
    case: str
    case_seq: int  # 1-based position of this entry within its case
    entry: LogEntry


@dataclass(frozen=True)
class WalReadResult:
    """Everything a replay could salvage from a directory's segments."""

    records: tuple[WalRecord, ...]
    torn_tail: bool  # the final segment ended in a torn record


def _decode_payload(payload: bytes) -> WalRecord:
    message = json.loads(payload)
    return WalRecord(
        wal_seq=int(message["q"]),
        case=str(message["c"]),
        case_seq=int(message["n"]),
        entry=entry_from_message(message["e"]),
    )


def segment_paths(directory: "str | Path") -> list[Path]:
    """Every segment file in *directory*, ordered ``(name, index)``.

    Every log's segments, whatever names the daemon that wrote them
    used: recovery reads them all.
    """
    base = Path(directory)
    if not base.is_dir():
        return []
    found: list[tuple[str, int, Path]] = []
    for path in base.iterdir():
        match = _SEGMENT_RE.match(path.name)
        if match is not None:
            found.append((match.group("name"), int(match.group("index")), path))
    found.sort()
    return [path for _, _, path in found]


def remove_segments(directory: "str | Path") -> int:
    """Delete every segment in *directory*; returns how many.

    Only safe once the durable store holds every record they carry:
    a start calls it after it committed the log's tail, and a drain
    after its store writer verified the chain.
    """
    paths = segment_paths(directory)
    for path in paths:
        path.unlink(missing_ok=True)
    return len(paths)


def read_segment(
    path: "str | Path", tolerant: bool = True
) -> tuple[list[WalRecord], bool]:
    """``(records, torn)`` for one segment file.

    ``tolerant`` governs the tail: a short or CRC-failing final frame is
    reported as ``torn=True`` and reading stops; with ``tolerant=False``
    the same condition raises :class:`WalCorruptionError`.  A bad magic
    header always raises — that file was never a segment.
    """
    data = Path(path).read_bytes()
    if not data.startswith(MAGIC):
        if MAGIC.startswith(data):
            # The file died before (or during) its header write — a
            # crash artifact carrying nothing, not corruption.
            return [], bool(data)
        raise WalCorruptionError(
            f"{path}: not a WAL segment (bad magic {data[:8]!r})"
        )
    records: list[WalRecord] = []
    offset = len(MAGIC)
    while offset + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, offset)
        payload = data[offset + _FRAME.size:offset + _FRAME.size + length]
        if length > _MAX_PAYLOAD or len(payload) < length or zlib.crc32(payload) != crc:
            break
        try:
            records.append(_decode_payload(payload))
        except Exception as error:
            # A frame whose CRC matched but whose JSON does not decode:
            # the record was written corrupt, not torn off.
            raise WalCorruptionError(
                f"{path}: record at byte {offset} passed CRC but does "
                f"not decode: {error}"
            ) from error
        offset += _FRAME.size + length
    # Stopped short of the end: a short or CRC-failing frame.
    torn = offset < len(data)
    if torn and not tolerant:
        raise WalCorruptionError(
            f"{path}: torn record at byte {offset} "
            f"({len(data) - offset} trailing byte(s))"
        )
    return records, torn


def read_wal(directory: "str | Path") -> WalReadResult:
    """Replay every log's segments in *directory*, oldest first.

    Per log, only the *final* segment may end torn — earlier segments
    were sealed after an fsync, so a bad frame there raises
    :class:`WalCorruptionError`.  Records keep each log's append order,
    which is the order its entries were accepted in.
    """
    paths = segment_paths(directory)
    logs: dict[str, list[Path]] = {}
    for path in paths:
        log = _SEGMENT_RE.match(path.name).group("name")
        logs.setdefault(log, []).append(path)
    records: list[WalRecord] = []
    torn = False
    for log_paths in logs.values():
        for position, path in enumerate(log_paths):
            last = position == len(log_paths) - 1
            found, was_torn = read_segment(path, tolerant=last)
            records.extend(found)
            torn = torn or was_torn
    return WalReadResult(records=tuple(records), torn_tail=torn)


class WalWriter:
    """One append-only ingest log (thread-safe).

    The writer starts a fresh log at seq 1 in a directory that holds no
    segment; one that still holds some raises :class:`WalError` — what
    they carry is the store's to take first (:func:`read_wal`, then
    :func:`remove_segments`).

    ``fault_hook`` is the deterministic failure seam used by the chaos
    suite (:mod:`repro.testing.faults`): it is invoked with ``"append"``
    before every record write and ``"fsync"`` before every fsync, and
    whatever it raises propagates to the caller — simulating disk-full
    without needing a full disk.
    """

    def __init__(
        self,
        directory: "str | Path",
        segment_max_bytes: int = 4 << 20,
        fsync_batch: int = 256,
        fault_hook: Optional[Callable[[str], None]] = None,
    ):
        if segment_max_bytes < len(MAGIC) + _FRAME.size:
            raise ValueError("segment_max_bytes is smaller than one frame")
        if fsync_batch < 1:
            raise ValueError("fsync_batch must be at least 1")
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        left = segment_paths(self._dir)
        if left:
            raise WalError(
                f"{self._dir} still holds {len(left)} WAL segment(s), "
                f"{left[0].name} first; a log starts in an empty directory"
            )
        self._segment_max = segment_max_bytes
        self._fsync_batch = fsync_batch
        self._fault_hook = fault_hook
        self._lock = threading.RLock()
        self._file = None
        self._file_path: Optional[Path] = None
        self._file_bytes = 0
        self._segment_first_seq = 0
        #: sealed segments, oldest first: (path, first_seq, last_seq)
        self._sealed: list[tuple[Path, int, int]] = []
        self.unflushed_records = 0
        self.unflushed_bytes = 0
        self.records_appended = 0
        self.fsyncs = 0
        self.flushes = 0  # flush-to-OS batches (no fsync)
        self._os_buffered = 0  # unflushed_records already pushed to the OS
        self.last_seq = 0
        self._next_index = 1
        #: per-case JSON key bytes, built once per case (append hot path)
        self._case_json: dict[str, bytes] = {}
        #: frames not yet handed to the OS (drained in one write/batch)
        self._buffer = bytearray()
        self._open_segment()

    def _open_segment(self) -> None:
        path = self._dir / f"{LOG_NAME}-{self._next_index:08d}.wal"
        self._next_index += 1
        # Unbuffered on purpose: frames accumulate in ``self._buffer``
        # (a plain bytearray — no syscall, no GIL release) and hit the
        # file in one raw write per batch.  A per-record
        # ``BufferedWriter.write`` releases the GIL each call, and under
        # the router's ingest lock that let other threads (the store
        # writer, the control API) in on every record.
        self._file = open(path, "wb", buffering=0)
        self._file.write(MAGIC)  # raw write: the header is out now
        self._file_path = path
        self._file_bytes = len(MAGIC)
        self._buffer.clear()
        self._segment_first_seq = self.last_seq + 1

    # -- the write path ----------------------------------------------------
    def append(
        self, entry: LogEntry, case_seq: int, line: Optional[bytes] = None
    ) -> int:
        """Frame and buffer one accepted entry; returns its WAL seq.

        *line* is the entry op as the client sent it, stripped — JSON
        that :func:`~repro.serve.protocol.entry_from_message` decodes to
        *entry* — and is framed as it is, so the entry is not encoded a
        second time.  Without one (an entry from an ``xes`` document or
        an in-process submit) the entry is encoded here, once, as
        :func:`~repro.serve.protocol.entry_to_message` renders it.

        Raises whatever the OS (or the fault hook) raises — the caller
        must then *reject* the entry, because an entry that is not in
        the WAL was never accepted.
        """
        if line is None:
            line = _ENCODE(entry_to_message(entry)).encode("utf-8")
        with self._lock:
            if self._file is None:
                raise WalError(f"WAL {self._dir} is closed")
            seq = self.last_seq + 1
            # Composed by hand rather than through a nested json.dumps:
            # this runs under the router's ingest lock, so every µs here
            # is a µs of global intake stall.  The case key repeats for
            # every entry of a case, so its JSON form is cached.
            case_json = self._case_json.get(entry.case)
            if case_json is None:
                case_json = _ENCODE(entry.case).encode("utf-8")
                self._case_json[entry.case] = case_json
            payload = b'{"q":%d,"c":%s,"n":%d,"e":%s}' % (
                seq,
                case_json,
                case_seq,
                line,
            )
            frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
            if self._fault_hook is not None:
                self._fault_hook("append")
            self._buffer += frame
            self.last_seq = seq
            self.records_appended += 1
            self._file_bytes += len(frame)
            self.unflushed_records += 1
            self.unflushed_bytes += len(frame)
            if self.unflushed_records - self._os_buffered >= self._fsync_batch:
                # Push to the OS, bounding what a *process* crash can
                # lose — but never fsync here: that is milliseconds of
                # ingest stall, and power-loss durability is promised
                # only at sync barriers (``commit()``).
                self._drain_locked()
                self.flushes += 1
            if self._file_bytes >= self._segment_max:
                self._rotate_locked()
            return seq

    def _drain_locked(self) -> None:
        """One raw write hands the buffered frames to the OS."""
        if self._buffer:
            self._file.write(self._buffer)
            self._buffer.clear()
        self._os_buffered = self.unflushed_records

    def commit(self) -> int:
        """Flush + fsync everything buffered; returns records made durable."""
        with self._lock:
            return self._commit_locked()

    def _commit_locked(self) -> int:
        if self._file is None or self.unflushed_records == 0:
            return 0
        flushed = self.unflushed_records
        if self._fault_hook is not None:
            self._fault_hook("fsync")
        self._drain_locked()
        os.fsync(self._file.fileno())
        self.fsyncs += 1
        self.unflushed_records = 0
        self.unflushed_bytes = 0
        self._os_buffered = 0
        return flushed

    def _rotate_locked(self) -> None:
        self._commit_locked()
        assert self._file is not None and self._file_path is not None
        self._file.close()
        if self.last_seq >= self._segment_first_seq:
            self._sealed.append(
                (self._file_path, self._segment_first_seq, self.last_seq)
            )
        else:  # rotated before any record landed — nothing to keep
            self._file_path.unlink(missing_ok=True)
        self._open_segment()

    # -- retirement --------------------------------------------------------
    def retire(self, upto_seq: int) -> int:
        """Delete sealed segments wholly at or below *upto_seq*.

        Called once the batched store flush covering *upto_seq* has
        committed — the long-term record now owns those entries.  The
        open segment is never deleted here.  Returns segments removed.
        """
        removed = 0
        with self._lock:
            keep: list[tuple[Path, int, int]] = []
            for path, first, last in self._sealed:
                if last <= upto_seq:
                    path.unlink(missing_ok=True)
                    removed += 1
                else:
                    keep.append((path, first, last))
            self._sealed = keep
        return removed

    def close(self) -> None:
        with self._lock:
            if self._file is None:
                return
            self._commit_locked()
            self._file.close()
            self._file = None

    # -- inspection --------------------------------------------------------
    @property
    def segment_count(self) -> int:
        with self._lock:
            return len(self._sealed) + (1 if self._file is not None else 0)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "records": self.records_appended,
                "last_seq": self.last_seq,
                "unflushed_records": self.unflushed_records,
                "unflushed_bytes": self.unflushed_bytes,
                "segments": self.segment_count,
                "fsyncs": self.fsyncs,
                "flushes": self.flushes,
            }


def wal_records_by_case(
    records: Iterable[WalRecord],
) -> dict[str, list[WalRecord]]:
    """Group records per case, preserving append order."""
    grouped: dict[str, list[WalRecord]] = {}
    for record in records:
        grouped.setdefault(record.case, []).append(record)
    return grouped
