"""The streaming audit daemon (``repro serve``).

Turns the library's online monitoring layer into a long-running
service: log shippers stream Definition-4 entries (or XES fragments)
over a JSON-lines TCP protocol, the service replays each entry on one
:class:`~repro.core.monitor.OnlineMonitor`, on the event loop, as its
line is read, persists the raw stream to the tamper-evident
:class:`~repro.audit.store.AuditStore` in batched transactions (one
writer thread), and streams per-case verdict transitions back as they
happen.  See ``docs/serving.md`` for the wire protocol, the engine and
drain semantics, and the backpressure model; ``docs/robustness.md``
covers the crash-safety layer (the durable store every start resumes,
the WAL in front of it, failure containment).

Layers (bottom up):

* :mod:`repro.serve.protocol` — the JSON-lines wire vocabulary;
* :mod:`repro.serve.wal` — the write-ahead ingest log;
* :mod:`repro.serve.core` — :class:`ShardRouter`, the socket-free
  engine (one monitor, store writer, WAL, admission, quarantine,
  drain);
* :mod:`repro.serve.recovery` — crash recovery: the WAL's tail past
  the store, and the report of what a start on a durable store
  resumed, byte-identically;
* :mod:`repro.serve.service` — :class:`AuditService`, the asyncio TCP
  + HTTP front end: one :class:`asyncio.Protocol` per TCP client, whose
  reads pause while its replies are not read;
* :mod:`repro.serve.client` — :class:`AuditStreamClient`, a blocking
  reference client, and :class:`ResilientAuditClient`, the
  reconnecting/idempotent shipper.
"""

from repro.serve.client import AuditStreamClient, ResilientAuditClient
from repro.serve.core import Admission, DrainReport, ServeConfig, ShardRouter
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    entry_from_message,
    entry_to_message,
)
from repro.serve.recovery import RecoveryReport, wal_delta
from repro.serve.service import AuditService
from repro.serve.wal import (
    WalCorruptionError,
    WalError,
    WalRecord,
    WalWriter,
    read_wal,
    remove_segments,
    segment_paths,
)

__all__ = [
    "Admission",
    "AuditService",
    "AuditStreamClient",
    "DrainReport",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RecoveryReport",
    "ResilientAuditClient",
    "ServeConfig",
    "ShardRouter",
    "WalCorruptionError",
    "WalError",
    "WalRecord",
    "WalWriter",
    "decode_message",
    "encode_message",
    "entry_from_message",
    "entry_to_message",
    "read_wal",
    "remove_segments",
    "segment_paths",
    "wal_delta",
]
