"""The streaming audit daemon (``repro serve``).

Turns the library's online monitoring layer into a long-running
service: log shippers stream Definition-4 entries (or XES fragments)
over a JSON-lines TCP protocol, the service routes each entry to one
of N :class:`~repro.core.monitor.OnlineMonitor` shards by
consistent-hashing its case id, persists the raw stream to the
tamper-evident :class:`~repro.audit.store.AuditStore` in batched
transactions, and streams per-case verdict transitions back as they
happen.  See ``docs/serving.md`` for the wire protocol, sharding and
drain semantics, and the backpressure model; ``docs/robustness.md``
covers the crash-safety layer (WAL, recovery, supervision).

Layers (bottom up):

* :mod:`repro.serve.sharding` — the consistent-hash ring;
* :mod:`repro.serve.protocol` — the JSON-lines wire vocabulary;
* :mod:`repro.serve.wal` — the per-shard write-ahead ingest log;
* :mod:`repro.serve.core` — :class:`ShardRouter`, the socket-free
  engine (shard threads, store writer, WAL, admission control,
  quarantine, drain);
* :mod:`repro.serve.recovery` — crash recovery: store + WAL delta →
  per-case histories, which a router with a WAL resumes at start and
  a restarted shard replays, byte-identically;
* :mod:`repro.serve.supervisor` — heartbeat-based shard crash/hang
  detection and bounded restart, on whenever the WAL is;
* :mod:`repro.serve.service` — :class:`AuditService`, the asyncio TCP
  + HTTP front end;
* :mod:`repro.serve.client` — :class:`AuditStreamClient`, a blocking
  reference client, and :class:`ResilientAuditClient`, the
  reconnecting/idempotent shipper.
"""

from repro.serve.client import AuditStreamClient, ResilientAuditClient
from repro.serve.core import Admission, DrainReport, ServeConfig, ShardRouter
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_jsonl,
    decode_message,
    encode_message,
    entry_from_message,
    entry_to_message,
)
from repro.serve.recovery import RecoveryReport, collect_case_histories
from repro.serve.service import AuditService
from repro.serve.sharding import ConsistentHashRing
from repro.serve.supervisor import ShardSupervisor
from repro.serve.wal import (
    WalCorruptionError,
    WalError,
    WalRecord,
    WalWriter,
    read_wal,
    segment_paths,
)

__all__ = [
    "Admission",
    "AuditService",
    "AuditStreamClient",
    "ConsistentHashRing",
    "DrainReport",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RecoveryReport",
    "ResilientAuditClient",
    "ServeConfig",
    "ShardRouter",
    "ShardSupervisor",
    "WalCorruptionError",
    "WalError",
    "WalRecord",
    "WalWriter",
    "collect_case_histories",
    "decode_jsonl",
    "decode_message",
    "encode_message",
    "entry_from_message",
    "entry_to_message",
    "read_wal",
    "segment_paths",
]
