"""The streaming audit service's wire protocol (JSON lines).

One JSON object per ``\\n``-terminated line, both directions.  Client
operations carry an ``"op"`` key; server messages carry an ``"event"``
key.  The full vocabulary, field tables, and examples are documented in
``docs/serving.md``; this module is the single place both the server and
the test clients encode/decode it, so the two cannot drift.

Client → server operations:

* ``{"op": "entry", ...}`` — one Definition-4 log entry (fields below);
* ``{"op": "xes", "document": "<log .../>"}`` — an XES fragment whose
  events are ingested as if sent individually;
* ``{"op": "sync", "id": ...}`` — barrier: answered with ``synced``
  once every entry sent before it has been processed by its shard;
* ``{"op": "status"}`` — a service statistics snapshot;
* ``{"op": "results"}`` — per-case final states and canonical verdict
  digests (implies a barrier);
* ``{"op": "bye"}`` — polite close.

Entry fields mirror :class:`repro.audit.model.LogEntry`: ``user``,
``role``, ``action``, ``obj`` (string or null), ``task``, ``case``,
``ts`` (the paper's ``YYYYMMDDHHMM`` or ISO-8601), ``status``
(``success``/``failure``, default success).  An optional ``"seq"``
(1-based per case) numbers the entry within its case: a numbered
re-send is deduplicated server-side, which is what makes a client's
resume after a reconnect idempotent (``docs/robustness.md``).

``entry`` and ``xes`` operations may additionally carry a
``"traceparent"`` field — a W3C Trace Context header value
(``00-<32 hex>-<16 hex>-01``).  When the service runs with tracing
enabled, the sender's context becomes the remote parent of the case's
trace (see ``docs/observability.md``); malformed values are ignored,
never rejected — trace propagation is best-effort and must not cost an
entry.

Server → client events: ``hello``, ``verdict`` (a per-case state
transition, streamed as it happens), ``error`` (a rejected input line —
the stream stays live), ``busy`` (the entry was *refused under
backpressure* — unlike ``error`` it is retryable and carries
``retry_after_s``, plus ``shed: true`` when admission control dropped
it outright and ``duplicate: true`` when the refusal is really an ack
of an already-accepted re-send), ``synced``, ``status``, ``results``,
``final`` (drain-time last word on a case), ``bye``.
"""

from __future__ import annotations

import json
from datetime import datetime
from sys import intern
from typing import Iterable, Iterator, Optional

from repro.audit.model import LogEntry, Status, parse_timestamp
from repro.errors import ReproError
from repro.policy.model import ObjectRef

# -- operations (client -> server) ------------------------------------------
OP_ENTRY = "entry"
OP_XES = "xes"
OP_SYNC = "sync"
OP_STATUS = "status"
OP_RESULTS = "results"
OP_BYE = "bye"

OPERATIONS = frozenset(
    {OP_ENTRY, OP_XES, OP_SYNC, OP_STATUS, OP_RESULTS, OP_BYE}
)

# -- events (server -> client) ----------------------------------------------
EV_HELLO = "hello"
EV_VERDICT = "verdict"
EV_ERROR = "error"
EV_BUSY = "busy"
EV_SYNCED = "synced"
EV_STATUS = "status"
EV_RESULTS = "results"
EV_FINAL = "final"
EV_BYE = "bye"

#: Protocol revision, announced in ``hello`` for client compatibility.
PROTOCOL_VERSION = 1


class ProtocolError(ReproError):
    """A request line the service could not decode or dispatch."""


#: The one JSON encoder of server messages (compact, like the wire).
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=str)

#: ``"case":record`` pairs per chunk of a streamed ``results`` reply.
RESULTS_CHUNK = 64


def encode_message(message: dict) -> bytes:
    """One protocol message as a ``\\n``-terminated JSON-line."""
    return (_ENCODER.encode(message) + "\n").encode("utf-8")


def encode_results(records: Iterable[dict]) -> Iterator[bytes]:
    """The ``results`` event as byte chunks of :data:`RESULTS_CHUNK` records.

    Joined, the chunks equal :func:`encode_message` of
    ``{"event": "results", "cases": {record["case"]: record, ...}}``.
    Records are pulled as chunks are, so a writer that sends each chunk
    before asking for the next holds one chunk of the reply at a time.
    """
    encode = _ENCODER.encode
    parts = ['{"event":%s,"cases":{' % encode(EV_RESULTS)]
    count = 0
    for record in records:
        if count:
            parts.append(",")
        parts += (encode(record["case"]), ":", encode(record))
        count += 1
        if count % RESULTS_CHUNK == 0:
            yield "".join(parts).encode("utf-8")
            parts = []
    parts.append("}}\n")
    yield "".join(parts).encode("utf-8")


def decode_message(line: "bytes | str") -> dict:
    """Decode one line into a message dict (:class:`ProtocolError` on junk)."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"request is not UTF-8: {error}") from error
    try:
        message = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"request is not valid JSON: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(message).__name__}"
        )
    return message


def decode_jsonl(
    data: "bytes | str", tolerant: bool = True
) -> tuple[list[dict], bool]:
    """Decode a JSON-lines buffer, tolerating a torn trailing line.

    A crash (the sender's or ours) mid-write leaves the final line
    truncated; a reader that raises on it loses every *complete* line
    before it.  This decoder returns ``(messages, torn)``: all lines
    that decode to JSON objects, and whether the buffer ended in an
    undecodable partial line.  ``tolerant=False`` restores strictness —
    the torn tail raises :class:`ProtocolError`.  Only the *final*
    non-empty line may be torn: junk in the middle of the buffer is
    corruption, not truncation, and always raises.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            # The torn byte sequence may split a UTF-8 code point; keep
            # everything decodable and treat the remainder as the tail.
            text = data.decode("utf-8", errors="replace")
    else:
        text = data
    lines = [line for line in text.split("\n") if line.strip()]
    ends_clean = text.endswith("\n")
    messages: list[dict] = []
    torn = False
    for index, line in enumerate(lines):
        last = index == len(lines) - 1
        try:
            message = json.loads(line)
            if not isinstance(message, dict):
                raise ValueError("not a JSON object")
        except ValueError as error:
            if last and not ends_clean:
                torn = True
                break
            raise ProtocolError(
                f"line {index + 1} is not a JSON object: {error}"
            ) from None
        messages.append(message)
    if torn and not tolerant:
        raise ProtocolError(
            f"buffer ends in a torn line ({lines[-1][:40]!r}...)"
        )
    return messages, torn


def _parse_ts(text: str) -> datetime:
    """Accept the paper's ``YYYYMMDDHHMM`` or any ISO-8601 timestamp."""
    if len(text) == 12 and text.isdigit():
        return parse_timestamp(text)
    try:
        return datetime.fromisoformat(text)
    except ValueError as error:
        raise ProtocolError(
            f"timestamp {text!r} is neither YYYYMMDDHHMM nor ISO-8601"
        ) from error


def entry_from_message(message: dict) -> LogEntry:
    """Decode an ``entry`` operation into a validated :class:`LogEntry`."""
    missing = [
        key
        for key in ("user", "role", "action", "task", "case", "ts")
        if not message.get(key)
    ]
    if missing:
        raise ProtocolError(
            f"entry is missing required field(s): {', '.join(missing)}"
        )
    obj_text = message.get("obj")
    try:
        obj: Optional[ObjectRef] = (
            ObjectRef.parse(obj_text) if obj_text else None
        )
    except Exception as error:
        raise ProtocolError(f"bad object reference {obj_text!r}: {error}") from error
    status_text = message.get("status", Status.SUCCESS.value)
    try:
        status = Status(status_text)
    except ValueError:
        raise ProtocolError(
            f"status must be success or failure, got {status_text!r}"
        ) from None
    ts = message["ts"]
    if not isinstance(ts, str):
        raise ProtocolError(f"ts must be a string timestamp, got {ts!r}")
    # Intern the canonical vocabulary once at the wire boundary: every
    # downstream hot-path dict keyed by these strings — the table tier's
    # (task, role) symbol interner, the keyer caches, case routing —
    # then compares by pointer and hashes a given string at most once.
    return LogEntry(
        user=intern(str(message["user"])),
        role=intern(str(message["role"])),
        action=intern(str(message["action"])),
        obj=obj,
        task=intern(str(message["task"])),
        case=intern(str(message["case"])),
        timestamp=_parse_ts(ts),
        status=status,
    )


def entry_seq(message: dict) -> Optional[int]:
    """The optional per-case sequence number of an ``entry`` operation.

    ``None`` when absent (an unnumbered entry — no dedup); a positive
    int otherwise; :class:`ProtocolError` on anything else.
    """
    seq = message.get("seq")
    if seq is None:
        return None
    if isinstance(seq, bool) or not isinstance(seq, int) or seq < 1:
        raise ProtocolError(
            f"seq must be a positive integer, got {seq!r}"
        )
    return seq


def entry_to_message(
    entry: LogEntry,
    traceparent: Optional[str] = None,
    seq: Optional[int] = None,
) -> dict:
    """Encode a :class:`LogEntry` as an ``entry`` operation (round-trips).

    ``traceparent`` attaches the sender's W3C trace context, making the
    client span the remote parent of the case's service-side trace.
    ``seq`` numbers the entry within its case for idempotent re-sends.
    """
    message = {
        "op": OP_ENTRY,
        "user": entry.user,
        "role": entry.role,
        "action": entry.action,
        "obj": str(entry.obj) if entry.obj is not None else None,
        "task": entry.task,
        "case": entry.case,
        "ts": entry.timestamp.isoformat(),
        "status": entry.status.value,
    }
    if traceparent is not None:
        message["traceparent"] = traceparent
    if seq is not None:
        message["seq"] = seq
    return message
