"""A tamper-evident, SQLite-backed audit-log store.

Section 3.4 of the paper assumes logs "are collected from all
applications in a single database" and protected against integrity
breaches, citing secure-logging schemes [18, 19].  This store provides
both halves:

* a single SQLite table holding Definition-4 entries, queryable by case,
  user, object subtree and time range; the case id and the timestamp
  are indexed, the two columns the program reads by (a store made by
  an older version also keeps an index on ``user``);
* a SHA-256 **hash chain**: every row stores
  ``hash = sha256(prev_hash || canonical-serialization)``, so any
  after-the-fact modification, deletion or reordering is detected by
  :meth:`AuditStore.verify_integrity`.  One function,
  :func:`_entry_row`, builds a row and its hash, for appends and for
  the verification alike.

The store is a context manager and safe to use on ``":memory:"`` for
tests or on a file path for persistence.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from contextlib import contextmanager
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.audit.model import AuditTrail, LogEntry, Status, naive_utc
from repro.errors import AuditError, IntegrityError, MalformedEntryError
from repro.policy.model import ObjectRef

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.resilience import Quarantine

_SCHEMA = """
CREATE TABLE IF NOT EXISTS audit_log (
    seq        INTEGER PRIMARY KEY AUTOINCREMENT,
    user       TEXT NOT NULL,
    role       TEXT NOT NULL,
    action     TEXT NOT NULL,
    obj        TEXT,
    task       TEXT NOT NULL,
    case_id    TEXT NOT NULL,
    ts         TEXT NOT NULL,
    status     TEXT NOT NULL,
    prev_hash  TEXT NOT NULL,
    hash       TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_audit_case ON audit_log (case_id);
CREATE INDEX IF NOT EXISTS idx_audit_ts   ON audit_log (ts);
CREATE TABLE IF NOT EXISTS audit_anchor (
    id          INTEGER PRIMARY KEY CHECK (id = 1),
    anchor_hash TEXT NOT NULL,
    purged_upto TEXT,
    purge_count INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS control_log (
    seq       INTEGER PRIMARY KEY AUTOINCREMENT,
    action    TEXT NOT NULL,
    case_id   TEXT,
    actor     TEXT NOT NULL,
    reason    TEXT NOT NULL DEFAULT '',
    ts        TEXT NOT NULL,
    prev_hash TEXT NOT NULL,
    hash      TEXT NOT NULL
);
"""

#: The chain anchor for the first entry.
GENESIS = "0" * 64

_INSERT = (
    "INSERT INTO audit_log "
    "(user, role, action, obj, task, case_id, ts, status, prev_hash, hash) "
    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
)


class AuditStore:
    """Append-only audit log with hash-chain integrity."""

    def __init__(self, path: str = ":memory:"):
        self._connection = sqlite3.connect(path)
        self._connection.executescript(_SCHEMA)
        self._connection.commit()
        self._writing = False

    @contextmanager
    def _write_transaction(self):
        """One write transaction; **rejects reentrant writes**.

        ``sqlite3`` connection context managers do not nest: an inner
        ``with connection:`` block *commits* the outer transaction on
        exit.  A batch iterable with a side effect that writes to the
        same store mid-``append_many`` would therefore (a) commit a
        partial prefix of the batch behind the caller's back and (b)
        fork the hash chain — the precomputed ``prev_hash`` sequence no
        longer matches the rows actually on disk, so two rows end up
        chaining off the same predecessor.  Refusing the inner write
        keeps the outer batch atomic and the chain linear.
        """
        if self._writing:
            raise AuditError(
                "reentrant write: the store is already inside a write "
                "transaction (did a batch iterable append to the same "
                "store?)"
            )
        self._writing = True
        try:
            with self._connection:
                yield
        finally:
            self._writing = False

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "AuditStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- writing ---------------------------------------------------------
    def append(self, entry: LogEntry) -> int:
        """Append one entry; returns its sequence number."""
        with self._write_transaction():  # one transaction per append
            row = _entry_row(entry, self._last_hash())
            cursor = self._connection.execute(_INSERT, row)
        return int(cursor.lastrowid or 0)

    def append_many(self, entries: Iterable[LogEntry]) -> int:
        """Append entries in order, atomically; returns how many were written.

        The whole batch is **one transaction** and one ``executemany``,
        which builds each row as it inserts it (SQLite releases the GIL
        between rows, so other threads run meanwhile).  If any entry
        fails validation (raising
        :class:`repro.errors.MalformedEntryError` with its batch offset),
        the transaction rolls back and nothing is written — no partial
        prefix is left behind to anchor a hash chain against garbage.
        """
        with self._write_transaction():  # one transaction for the whole batch
            cursor = self._connection.executemany(
                _INSERT, _chain_rows(entries, self._last_hash())
            )
        return cursor.rowcount

    def _anchor(self) -> tuple[str, Optional[str], int]:
        """(anchor hash, purged-up-to timestamp, purged count)."""
        row = self._connection.execute(
            "SELECT anchor_hash, purged_upto, purge_count FROM audit_anchor "
            "WHERE id = 1"
        ).fetchone()
        if row is None:
            return GENESIS, None, 0
        return row[0], row[1], int(row[2])

    def _last_hash(self) -> str:
        row = self._connection.execute(
            "SELECT hash FROM audit_log ORDER BY seq DESC LIMIT 1"
        ).fetchone()
        if row:
            return row[0]
        return self._anchor()[0]

    # -- reading ---------------------------------------------------------
    def _select_rows(
        self,
        case: Optional[str] = None,
        user: Optional[str] = None,
        since: Optional[datetime] = None,
        until: Optional[datetime] = None,
        after_seq: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> list[tuple]:
        """The shared filtered SELECT behind every trail reader."""
        clauses: list[str] = []
        params: list[object] = []
        if case is not None:
            clauses.append("case_id = ?")
            params.append(case)
        if user is not None:
            clauses.append("user = ?")
            params.append(user)
        if since is not None:
            clauses.append("ts >= ?")
            params.append(naive_utc(since).isoformat())
        if until is not None:
            clauses.append("ts <= ?")
            params.append(naive_utc(until).isoformat())
        if after_seq is not None:
            clauses.append("seq > ?")
            params.append(int(after_seq))
        sql = (
            "SELECT seq, user, role, action, obj, task, case_id, ts, status "
            "FROM audit_log"
        )
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY seq"
        if limit is not None:
            if limit < 0:
                raise AuditError("limit must be non-negative")
            sql += " LIMIT ?"
            params.append(int(limit))
        return self._connection.execute(sql, params).fetchall()

    def query(
        self,
        case: Optional[str] = None,
        user: Optional[str] = None,
        obj: Optional[ObjectRef] = None,
        since: Optional[datetime] = None,
        until: Optional[datetime] = None,
        quarantine: "Quarantine | None" = None,
        after_seq: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> AuditTrail:
        """Entries matching every given filter, as an ordered trail.

        The object filter matches the *subtree* of ``obj`` — querying for
        ``[Jane]EPR`` returns accesses to any of its sections.
        Timezone-aware ``since``/``until`` bounds are normalized to naive
        UTC, the representation entries are stored in.

        ``after_seq``/``limit`` give keyset pagination over the log's
        sequence numbers: only rows with ``seq > after_seq`` are read,
        at most ``limit`` of them.  A million-entry trail is then walked
        page by page instead of materialized at once (the control-plane
        drill-down endpoints rely on this); note the ``limit`` is applied
        *before* the Python-side object-subtree filter.

        Rows that no longer decode into a valid
        :class:`~repro.audit.model.LogEntry` (e.g. after tampering)
        raise :class:`repro.errors.MalformedEntryError` — unless a
        *quarantine* is given, in which case they are diverted to the
        dead-letter collection and the healthy rows are returned.
        """
        rows = self._select_rows(
            case=case,
            user=user,
            since=since,
            until=until,
            after_seq=after_seq,
            limit=limit,
        )
        entries = []
        for row in rows:
            try:
                entries.append(_entry_from_row(row[1:], position=int(row[0])))
            except MalformedEntryError as error:
                if quarantine is None:
                    raise
                quarantine.add(
                    source="store",
                    position=int(row[0]),
                    reason=str(error),
                    raw=repr(tuple(row[1:])),
                )
        if obj is not None:
            entries = [
                e for e in entries if e.obj is not None and obj.covers(e.obj)
            ]
        return AuditTrail(entries)

    def entries_with_seq(
        self,
        case: Optional[str] = None,
        after_seq: int = 0,
        limit: Optional[int] = None,
    ) -> list[tuple[int, LogEntry]]:
        """A page of ``(seq, entry)`` pairs for cursor-driven readers.

        The returned sequence numbers are the keyset cursor: pass the
        last one back as ``after_seq`` to fetch the next page.  Used by
        the control-plane trail endpoints and :meth:`iter_entries`,
        which must never hold a full store in memory.
        """
        rows = self._select_rows(case=case, after_seq=after_seq, limit=limit)
        return [
            (int(row[0]), _entry_from_row(row[1:], position=int(row[0])))
            for row in rows
        ]

    def iter_entries(self, page: int = 512) -> Iterator[LogEntry]:
        """Every entry in log (``seq``) order, read *page* rows at a time.

        The order the entries were appended in — for the streaming
        service, acceptance order — where :meth:`query`'s trail re-sorts
        by timestamp.  Replays that must see what the service saw live
        (re-audit and the service's start-up resume) read this.
        """
        cursor = 0
        while True:
            rows = self.entries_with_seq(after_seq=cursor, limit=page)
            if not rows:
                return
            cursor = rows[-1][0]
            for _, entry in rows:
                yield entry

    def cases(self, prefix: Optional[str] = None) -> list[str]:
        """Distinct case ids in first-seen order.

        ``prefix`` filters to one purpose's cases by their case-id prefix
        (the ``HT`` of ``HT-1``); the match is exact on the segment
        before the ``-`` separator, not a pattern, so a prefix that is
        itself a prefix of another (``HT`` vs ``HTX``) never
        over-matches.
        """
        if prefix is None:
            rows = self._connection.execute(
                "SELECT case_id FROM audit_log "
                "GROUP BY case_id ORDER BY MIN(seq)"
            ).fetchall()
        else:
            marker = prefix + "-"
            rows = self._connection.execute(
                "SELECT case_id FROM audit_log "
                "WHERE substr(case_id, 1, ?) = ? "
                "GROUP BY case_id ORDER BY MIN(seq)",
                (len(marker), marker),
            ).fetchall()
        return [row[0] for row in rows]

    def cases_touching(self, obj: ObjectRef) -> list[str]:
        """The cases in which *obj* or a descendant was accessed."""
        return self.query(obj=obj).cases()

    # -- control log -----------------------------------------------------
    def record_control(
        self,
        action: str,
        case: Optional[str] = None,
        actor: str = "operator",
        reason: str = "",
        timestamp: Optional[datetime] = None,
    ) -> int:
        """Append an operator action (requeue/dismiss/re-audit) for posterity.

        Control records live in their **own** hash chain, separate from
        ``audit_log``: interleaving them into the case trail would fork
        the trail chain every time an operator acted, and the trail chain
        is what anchors the paper's Definition-4 entries.  Returns the
        record's sequence number.
        """
        if not action:
            raise AuditError("control action must be non-empty")
        when = naive_utc(timestamp or datetime.now(timezone.utc))
        with self._write_transaction():
            prev_hash = self._last_control_hash()
            payload = {
                "action": action,
                "case": case,
                "actor": actor,
                "reason": reason,
                "ts": when.isoformat(),
            }
            digest = _control_hash(prev_hash, payload)
            cursor = self._connection.execute(
                "INSERT INTO control_log "
                "(action, case_id, actor, reason, ts, prev_hash, hash) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (action, case, actor, reason, when.isoformat(), prev_hash, digest),
            )
        return int(cursor.lastrowid or 0)

    def control_records(self, case: Optional[str] = None) -> list[dict[str, object]]:
        """Operator actions, oldest first, optionally for one case."""
        sql = "SELECT seq, action, case_id, actor, reason, ts FROM control_log"
        params: list[object] = []
        if case is not None:
            sql += " WHERE case_id = ?"
            params.append(case)
        sql += " ORDER BY seq"
        rows = self._connection.execute(sql, params).fetchall()
        return [
            {
                "seq": int(row[0]),
                "action": row[1],
                "case": row[2],
                "actor": row[3],
                "reason": row[4],
                "ts": row[5],
            }
            for row in rows
        ]

    def dismissed_cases(self) -> set[str]:
        """Cases an operator dismissed from quarantine: final, so the
        live router and a standalone control plane both hide them."""
        rows = self._connection.execute(
            "SELECT DISTINCT case_id FROM control_log WHERE action = 'dismiss'"
        ).fetchall()
        return {row[0] for row in rows}

    def _last_control_hash(self) -> str:
        row = self._connection.execute(
            "SELECT hash FROM control_log ORDER BY seq DESC LIMIT 1"
        ).fetchone()
        return row[0] if row else GENESIS

    def __len__(self) -> int:
        row = self._connection.execute("SELECT COUNT(*) FROM audit_log").fetchone()
        return int(row[0])

    # -- integrity --------------------------------------------------------
    def verify_integrity(self) -> None:
        """Re-derive the hash chain; raise :class:`IntegrityError` on breakage."""
        rows = self._connection.execute(
            "SELECT seq, user, role, action, obj, task, case_id, ts, status, "
            "prev_hash, hash FROM audit_log ORDER BY seq"
        ).fetchall()
        expected_prev = self._anchor()[0]
        for row in rows:
            seq = int(row[0])
            stored_prev, stored_hash = row[9], row[10]
            try:
                entry = _entry_from_row(row[1:9], position=seq)
                rendered = _entry_row(entry, stored_prev, seq)
            except MalformedEntryError as error:
                # A row that no longer decodes cannot hash to what was
                # logged — it was modified after the fact.
                raise IntegrityError(
                    f"entry {seq} was modified after being logged "
                    f"(no longer decodes: {error})",
                    first_bad_seq=seq,
                ) from error
            if stored_prev != expected_prev:
                raise IntegrityError(
                    f"hash chain broken before entry {seq} "
                    "(an entry was removed or reordered)",
                    first_bad_seq=seq,
                )
            # The row must be the text the parsed entry renders: a
            # parsed entry keeps naive UTC only, so a zoned ``ts`` (or
            # any other column rewritten to an equivalent form) was
            # rewritten, whatever instant it names.
            if rendered[-1] != stored_hash or rendered[:8] != row[1:9]:
                raise IntegrityError(
                    f"entry {seq} was modified after being logged",
                    first_bad_seq=seq,
                )
            expected_prev = stored_hash
        self._verify_control_chain()

    def _verify_control_chain(self) -> None:
        """Walk the operator-action chain (a no-op when no one has acted)."""
        rows = self._connection.execute(
            "SELECT seq, action, case_id, actor, reason, ts, prev_hash, hash "
            "FROM control_log ORDER BY seq"
        ).fetchall()
        expected_prev = GENESIS
        for row in rows:
            seq = int(row[0])
            payload = {
                "action": row[1],
                "case": row[2],
                "actor": row[3],
                "reason": row[4],
                "ts": row[5],
            }
            stored_prev, stored_hash = row[6], row[7]
            if stored_prev != expected_prev:
                raise IntegrityError(
                    f"control chain broken before record {seq} "
                    "(a record was removed or reordered)",
                    first_bad_seq=seq,
                )
            if _control_hash(stored_prev, payload) != stored_hash:
                raise IntegrityError(
                    f"control record {seq} was modified after being logged",
                    first_bad_seq=seq,
                )
            expected_prev = stored_hash

    def is_intact(self) -> bool:
        try:
            self.verify_integrity()
        except IntegrityError:
            return False
        return True

    # -- retention ---------------------------------------------------------
    def purge_before(self, cutoff: datetime) -> int:
        """Erase the oldest entries (storage-limitation / GDPR retention).

        Deletes the maximal *prefix* of the log whose entries are all
        older than *cutoff* and re-anchors the hash chain at the last
        deleted entry, so :meth:`verify_integrity` keeps working for
        everything retained.  Prefix-based deletion is what keeps the
        chain meaningful: an entry younger than the cutoff blocks
        deletion of anything logged after it.

        Returns the number of entries erased.
        """
        cutoff = naive_utc(cutoff)
        rows = self._connection.execute(
            "SELECT seq, ts, hash FROM audit_log ORDER BY seq"
        ).fetchall()
        boundary: Optional[tuple[int, str]] = None
        count = 0
        for seq, ts, digest in rows:
            if datetime.fromisoformat(ts) < cutoff:
                boundary = (int(seq), digest)
                count += 1
            else:
                break
        if boundary is None:
            return 0
        _, purged_upto, purged_so_far = self._anchor()
        del purged_upto
        with self._write_transaction():
            self._connection.execute(
                "DELETE FROM audit_log WHERE seq <= ?", (boundary[0],)
            )
            self._connection.execute(
                "INSERT INTO audit_anchor (id, anchor_hash, purged_upto, purge_count) "
                "VALUES (1, ?, ?, ?) "
                "ON CONFLICT (id) DO UPDATE SET anchor_hash = excluded.anchor_hash, "
                "purged_upto = excluded.purged_upto, "
                "purge_count = excluded.purge_count",
                (boundary[1], cutoff.isoformat(), purged_so_far + count),
            )
        return count

    def retention_info(self) -> dict[str, object]:
        """How much has been purged and where the chain is anchored."""
        anchor_hash, purged_upto, purge_count = self._anchor()
        return {
            "anchored": anchor_hash != GENESIS,
            "anchor_hash": anchor_hash,
            "purged_upto": purged_upto,
            "purged_entries": purge_count,
            "retained_entries": len(self),
        }

    # -- test support ------------------------------------------------------
    def tamper(self, seq: int, **fields: str) -> None:
        """Modify a stored row *without* fixing the chain (for tests/demos)."""
        allowed = {"user", "role", "action", "obj", "task", "case_id", "status"}
        unknown = set(fields) - allowed
        if unknown:
            raise ValueError(f"cannot tamper with columns {sorted(unknown)}")
        assignments = ", ".join(f"{column} = ?" for column in fields)
        with self._write_transaction():
            self._connection.execute(
                f"UPDATE audit_log SET {assignments} WHERE seq = ?",
                [*fields.values(), seq],
            )


def _control_hash(prev_hash: str, payload: dict[str, object]) -> str:
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256((prev_hash + canonical).encode("utf-8")).hexdigest()


#: ``json.dumps``'s own string encoder: quoted, ASCII-only output.
_quote = json.encoder.encode_basestring_ascii


def _entry_row(entry: LogEntry, prev_hash: str, position: int = 0) -> tuple:
    """The ``audit_log`` row of *entry* chained after *prev_hash*.

    Returns ``(user, role, action, obj, task, case_id, ts, status,
    prev_hash, hash)``: the entry's text with its timestamp in naive
    UTC, and ``hash = sha256(prev_hash || canonical)``, where the
    canonical form is ``json.dumps`` of the eight fields with
    ``sort_keys=True``, composed here directly, byte for byte.  Each
    field is rendered once, for the row and the hash alike.

    A :class:`LogEntry` and its object already hold text that UTF-8
    encodes and that reads back as itself, so the row reads back as
    the entry.  An entry that cannot be rendered (one built around its
    constructor) raises :class:`MalformedEntryError` with *position*:
    inside a write transaction the raise rolls everything back.
    """
    try:
        obj = entry.obj
        row_text = (
            entry.user,
            entry.role,
            entry.action,
            str(obj) if obj is not None else None,
            entry.task,
            entry.case,
            entry.timestamp.isoformat(),
            entry.status.value,
        )
        user, role, action, obj_text, task, case, ts, status = row_text
        canonical = (
            '{"action": %s, "case": %s, "obj": %s, "role": %s, '
            '"status": %s, "task": %s, "ts": %s, "user": %s}'
            % (
                _quote(action),
                _quote(case),
                "null" if obj_text is None else _quote(obj_text),
                _quote(role),
                _quote(status),
                _quote(task),
                _quote(ts),
                _quote(user),
            )
        )
        digest = hashlib.sha256(
            (prev_hash + canonical).encode("utf-8")
        ).hexdigest()
    except Exception as error:
        raise MalformedEntryError(
            f"entry at batch offset {position} cannot be serialized: {error}",
            position=position,
        ) from error
    return (*row_text, prev_hash, digest)


def _chain_rows(entries: Iterable[LogEntry], prev_hash: str) -> Iterator[tuple]:
    """The rows of *entries*, each chained after the one before it."""
    for position, entry in enumerate(entries):
        row = _entry_row(entry, prev_hash, position)
        prev_hash = row[-1]
        yield row


def _entry_from_row(row: tuple, position: Optional[int] = None) -> LogEntry:
    user, role, action, obj, task, case_id, ts, status = row
    try:
        return LogEntry(
            user=user,
            role=role,
            action=action,
            obj=ObjectRef.parse(obj) if obj else None,
            task=task,
            case=case_id,
            timestamp=datetime.fromisoformat(ts),
            status=Status(status),
        )
    except Exception as error:
        where = f"row {position}" if position is not None else "row"
        raise MalformedEntryError(
            f"{where} does not decode into a valid log entry: {error}",
            position=position,
        ) from error
