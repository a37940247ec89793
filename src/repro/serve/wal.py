"""The per-shard write-ahead ingest log of the streaming audit service.

The audit is only as trustworthy as the trail it replays: an entry the
daemon *accepted* and then lost to a crash is a silent hole in the
record of processing — exactly the accountability gap the paper's
a-posteriori audit exists to close.  The WAL closes it on the serving
side: every accepted wire entry is appended here **before it is
acknowledged**, so after a ``kill -9`` the union of the audit store
(the batched, hash-chained long-term record) and the WAL delta is
precisely the set of acknowledged entries, and a router restarted on
them (:meth:`repro.serve.core.ShardRouter.start`) rebuilds in-flight
monitor state byte-identically to an uninterrupted run.

Design (one WAL per shard, in one directory):

* **CRC-framed records** — each record is ``<u32 payload length>
  <u32 crc32(payload)> <payload>``; the payload is one compact JSON
  object carrying the WAL sequence number, the case id, the per-case
  entry sequence number, and the wire form of the entry itself.
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
* **Truncated-tail tolerance** — a crash (or disk-full) mid-append
  leaves a torn final record; readers stop cleanly at the first bad
  frame of the *last* segment instead of raising.  A bad frame in any
  earlier segment is real corruption and raises
  :class:`WalCorruptionError` — those bytes were fsynced and sealed.

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

#: Characters a JSON string must escape; almost no real field has any.
_NEEDS_ESCAPE = re.compile(r'[\\"\x00-\x1f]').search


def _json_str(value: Optional[str]) -> bytes:
    """``value`` as JSON bytes — fast path for plain ASCII strings."""
    if value is None:
        return b"null"
    if value.isascii() and _NEEDS_ESCAPE(value) is None:
        return b'"%s"' % value.encode("ascii")
    return _ENCODE(value).encode("utf-8")


def _entry_json(entry: LogEntry) -> bytes:
    """The ``entry_to_message`` wire dict, composed straight to bytes.

    Byte-identical to ``_ENCODE(entry_to_message(entry))`` (a unit test
    holds the two in lock-step) but ~25% cheaper — this runs on the
    append hot path, under the router's ingest lock.
    """
    obj = entry.obj
    return (
        b'{"op":"entry","user":%s,"role":%s,"action":%s,"obj":%s,'
        b'"task":%s,"case":%s,"ts":%s,"status":%s}'
        % (
            _json_str(entry.user),
            _json_str(entry.role),
            _json_str(entry.action),
            _json_str(str(obj) if obj is not None else None),
            _json_str(entry.task),
            _json_str(entry.case),
            _json_str(entry.timestamp.isoformat()),
            _json_str(entry.status.value),
        )
    )

_SEGMENT_RE = re.compile(r"^(?P<shard>.+)-(?P<index>\d{8})\.wal$")


class WalError(ReproError):
    """The write-ahead log could not be written or read."""


class WalCorruptionError(WalError):
    """A sealed (fsynced) WAL region failed its framing or CRC check."""


@dataclass(frozen=True)
class WalRecord:
    """One accepted entry as the WAL remembers it."""

    wal_seq: int  # monotone per shard, assigned at append
    case: str
    case_seq: int  # 1-based position of this entry within its case
    entry: LogEntry
    shard: str = ""


@dataclass(frozen=True)
class WalReadResult:
    """Everything a replay could salvage from one shard's segments."""

    records: tuple[WalRecord, ...]
    segments: int
    torn_tail: bool  # the final segment ended in a torn record


def _decode_payload(payload: bytes, shard: str) -> WalRecord:
    message = json.loads(payload)
    return WalRecord(
        wal_seq=int(message["q"]),
        case=str(message["c"]),
        case_seq=int(message["n"]),
        entry=entry_from_message(message["e"]),
        shard=shard,
    )


def segment_paths(directory: "str | Path", shard: Optional[str] = None) -> list[Path]:
    """Segment files in *directory*, ordered ``(shard, index)``.

    ``shard=None`` returns every shard's segments — recovery reads them
    all, whatever shard count the previous run used.
    """
    base = Path(directory)
    if not base.is_dir():
        return []
    found: list[tuple[str, int, Path]] = []
    for path in base.iterdir():
        match = _SEGMENT_RE.match(path.name)
        if match is None:
            continue
        if shard is not None and match.group("shard") != shard:
            continue
        found.append((match.group("shard"), int(match.group("index")), path))
    found.sort()
    return [path for _, _, path in found]


def shard_names_on_disk(directory: "str | Path") -> list[str]:
    """Every shard that left segments in *directory* (sorted)."""
    names = set()
    for path in segment_paths(directory):
        match = _SEGMENT_RE.match(path.name)
        if match is not None:
            names.add(match.group("shard"))
    return sorted(names)


def read_segment(
    path: "str | Path", shard: str, tolerant: bool = True
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
    records, torn, offset = _scan_frames(data, shard, path)
    if torn and not tolerant:
        raise WalCorruptionError(
            f"{path}: torn record at byte {offset} "
            f"({len(data) - offset} trailing byte(s))"
        )
    return records, torn


def _scan_frames(
    data: bytes, shard: str, path: "str | Path"
) -> tuple[list[WalRecord], bool, int]:
    """``(records, torn, clean_offset)`` — the decodable frame prefix.

    ``clean_offset`` is the byte position just past the last good frame;
    everything after it (if ``torn``) failed framing or CRC.
    """
    records: list[WalRecord] = []
    offset = len(MAGIC)
    torn = False
    while offset < len(data):
        frame = data[offset:offset + _FRAME.size]
        if len(frame) < _FRAME.size:
            torn = True
            break
        length, crc = _FRAME.unpack(frame)
        if length > _MAX_PAYLOAD:
            torn = True
            break
        payload = data[offset + _FRAME.size:offset + _FRAME.size + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            torn = True
            break
        try:
            records.append(_decode_payload(payload, shard))
        except Exception as error:
            # A frame whose CRC matched but whose JSON does not decode:
            # the record was written corrupt, not torn off.
            raise WalCorruptionError(
                f"{path}: record at byte {offset} passed CRC but does "
                f"not decode: {error}"
            ) from error
        offset += _FRAME.size + length
    return records, torn, offset


def read_wal(
    directory: "str | Path", shard: Optional[str] = None
) -> WalReadResult:
    """Replay one shard's (or every shard's) segments, oldest first.

    Per shard, only the *final* segment may end torn — earlier segments
    were sealed after an fsync, so a bad frame there raises
    :class:`WalCorruptionError`.  Records keep per-shard append order,
    which is all recovery needs: a case's entries all live in one
    shard's WAL, so per-case order is preserved.
    """
    records: list[WalRecord] = []
    torn = False
    paths = segment_paths(directory, shard)
    shards = (
        [shard] if shard is not None else shard_names_on_disk(directory)
    )
    for name in shards:
        shard_paths = segment_paths(directory, name)
        for position, path in enumerate(shard_paths):
            last = position == len(shard_paths) - 1
            found, was_torn = read_segment(path, name, tolerant=last)
            records.extend(found)
            torn = torn or was_torn
    return WalReadResult(
        records=tuple(records), segments=len(paths), torn_tail=torn
    )


class WalWriter:
    """One shard's append-only ingest log (thread-safe).

    ``fault_hook`` is the deterministic failure seam used by the chaos
    suite (:mod:`repro.testing.faults`): it is invoked with ``"append"``
    before every record write and ``"fsync"`` before every fsync, and
    whatever it raises propagates to the caller — simulating disk-full
    without needing a full disk.
    """

    def __init__(
        self,
        directory: "str | Path",
        shard: str,
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
        self.shard = shard
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
        #: torn tails truncated off adopted segments at startup
        self.tears_repaired = 0
        #: per-case JSON key bytes, built once per case (append hot path)
        self._case_json: dict[str, bytes] = {}
        #: frames not yet handed to the OS (drained in one write/batch)
        self._buffer = bytearray()
        self._adopt_existing()
        self._open_segment()

    # -- startup -----------------------------------------------------------
    def _adopt_existing(self) -> None:
        """Continue sequence numbers past whatever is already on disk.

        Existing segments are *never appended to*; they are adopted as
        sealed history so retirement and recovery keep working across
        restarts.  A torn tail on the crashed writer's final segment is
        **repaired here** — truncated to the last good frame — because
        once this writer opens a fresh segment, the adopted one is no
        longer "last" and every later read of it is rightly strict.
        The dropped suffix was never acknowledged, so cutting it loses
        nothing the protocol promised to keep.
        """
        for path in segment_paths(self._dir, self.shard):
            match = _SEGMENT_RE.match(path.name)
            assert match is not None
            self._next_index = max(self._next_index, int(match.group("index")) + 1)
            data = path.read_bytes()
            if not data.startswith(MAGIC):
                if MAGIC.startswith(data):
                    # Died before its header finished: carries nothing.
                    path.unlink(missing_ok=True)
                    continue
                raise WalCorruptionError(
                    f"{path}: not a WAL segment (bad magic {data[:8]!r})"
                )
            records, torn, clean = _scan_frames(data, self.shard, path)
            if torn:
                with open(path, "r+b") as repair:
                    repair.truncate(clean)
                    repair.flush()
                    os.fsync(repair.fileno())
                self.tears_repaired += 1
            if records:
                first, last = records[0].wal_seq, records[-1].wal_seq
                self.last_seq = max(self.last_seq, last)
                self._sealed.append((path, first, last))
            else:
                # An empty or fully-torn segment carries nothing worth
                # retiring against; drop it now.
                path.unlink(missing_ok=True)

    def _open_segment(self) -> None:
        path = self._dir / f"{self.shard}-{self._next_index:08d}.wal"
        self._next_index += 1
        # Unbuffered on purpose: frames accumulate in ``self._buffer``
        # (a plain bytearray — no syscall, no GIL release) and hit the
        # file in one raw write per batch.  A per-record
        # ``BufferedWriter.write`` releases the GIL each call, and under
        # the router's ingest lock that turns into a convoy with the
        # shard workers — measured at ~10x the cost of the write itself.
        self._file = open(path, "wb", buffering=0)
        self._file.write(MAGIC)  # raw write: the header is out now
        self._file_path = path
        self._file_bytes = len(MAGIC)
        self._buffer.clear()
        self._segment_first_seq = self.last_seq + 1

    # -- the write path ----------------------------------------------------
    def append(self, entry: LogEntry, case_seq: int) -> int:
        """Frame and buffer one accepted entry; returns its WAL seq.

        Raises whatever the OS (or the fault hook) raises — the caller
        must then *reject* the entry, because an entry that is not in
        the WAL was never accepted.
        """
        with self._lock:
            if self._file is None:
                raise WalError(f"WAL for {self.shard} is closed")
            seq = self.last_seq + 1
            # Composed by hand rather than through a nested json.dumps:
            # this runs under the router's ingest lock, so every µs here
            # is a µs of global intake stall.  The case key repeats for
            # every entry of a case, so its JSON form is cached.
            case_json = self._case_json.get(entry.case)
            if case_json is None:
                case_json = _json_str(entry.case)
                self._case_json[entry.case] = case_json
            payload = b'{"q":%d,"c":%s,"n":%d,"e":%s}' % (
                seq,
                case_json,
                case_seq,
                _entry_json(entry),
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

    def reset(self) -> None:
        """Drop *all* segments and start a fresh one.

        Only safe once every record has been committed to the store —
        recovery calls this after its post-replay flush is durable.
        """
        with self._lock:
            for path, _, _ in self._sealed:
                path.unlink(missing_ok=True)
            self._sealed = []
            if self._file is not None:
                self._file.close()
                assert self._file_path is not None
                self._file_path.unlink(missing_ok=True)
            self.unflushed_records = 0
            self.unflushed_bytes = 0
            self._open_segment()

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
                "tears_repaired": self.tears_repaired,
            }


def wal_records_by_case(
    records: Iterable[WalRecord],
) -> dict[str, list[WalRecord]]:
    """Group records per case, preserving append order."""
    grouped: dict[str, list[WalRecord]] = {}
    for record in records:
        grouped.setdefault(record.case, []).append(record)
    return grouped
