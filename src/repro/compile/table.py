"""The RPTB artifact: the purpose automaton's one on-disk format.

A purpose automaton (:mod:`repro.compile.automaton`) is a dense
transition table plus per-state metadata, and this module persists
exactly that, one file per ``(purpose, fingerprint)``:

* a fixed 52-byte prefix, little-endian: magic ``RPTB``, a ``uint32``
  format version, a ``uint32`` header length, a ``uint64`` cell-region
  length, and the SHA-256 of everything after the prefix (header and
  cells);
* a canonical-JSON header (sorted keys, space-padded to 4-byte
  alignment): identity (``fingerprint``, ``purpose``, ``roles``,
  ``hierarchy``, ``max_states``), the column alphabet (``symbols``),
  the deduplicated transition ``pool``, and one record per state —
  ``[key, size, may_continue, active, path]`` — so a loaded automaton
  can re-materialize any frontier from its witness path;
* the cell region: ``n_states x n_symbols`` little-endian ``int32``
  pool indices (``-1`` for cells not derived yet).

The checksum is verified before the header is parsed, so a flipped
byte anywhere after the prefix — a cell, a pool event string, a
witness path — is rejected at load time (``reason="tamper"``), never
replayed.  Writes are atomic (temp file + fsync + ``os.replace``), so
a crash mid-save leaves the previous artifact intact.  Every defect raises
:class:`~repro.errors.ArtifactError` with a machine-readable
``reason``; :class:`~repro.compile.artifact.AutomatonCache` turns that
into a ``compile.artifact_invalid`` event and a fresh automaton — an
invalid artifact never fails an audit.

:func:`decode_table` is the one validating reader: files go through it
via :func:`load_table`, and parallel workers receive the encoded bytes
(:func:`encode_table`) and decode them the same way.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
import sys
import tempfile
from array import array
from pathlib import Path
from typing import Optional

from repro.compile.automaton import (
    REJECTED_STATE,
    UNKNOWN,
    PurposeAutomaton,
    Transition,
    _State,
    compile_automaton,
)
from repro.errors import ArtifactError, PolicyError
from repro.policy.hierarchy import RoleHierarchy

#: The binary artifact's magic number (first four bytes on disk).
TABLE_MAGIC = b"RPTB"

#: Bump on any change to the binary layout or header schema.
TABLE_FORMAT_NAME = "repro-transition-table"
TABLE_FORMAT_VERSION = 3

#: The fixed prefix: magic, version, header length, cell-region length,
#: SHA-256 of header + cells.
TABLE_PREFIX = struct.Struct("<4sIIQ32s")

#: Eager compilation now builds the table itself; the name stays because
#: perfbench/wrappers.py times it.
compile_table = compile_automaton


def _slug(purpose: str) -> str:
    """A filesystem-safe rendering of a purpose name."""
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "-", purpose).strip("-")
    return cleaned or "purpose"


def table_path(
    directory: "str | Path", purpose: str, fingerprint: str
) -> Path:
    """The canonical artifact location for ``(purpose, fingerprint)``."""
    return Path(directory) / f"{_slug(purpose)}-{fingerprint[:16]}.table.bin"


def encode_table(automaton: PurposeAutomaton) -> bytes:
    """The RPTB bytes of *automaton* (see the module docstring)."""
    cells = automaton.cells
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        cells = array("i", cells)
        cells.byteswap()
    cells_bytes = cells.tobytes()
    keyer = automaton.keyer
    header = {
        "format": TABLE_FORMAT_NAME,
        "fingerprint": automaton.fingerprint,
        "purpose": automaton.purpose,
        "roles": sorted(keyer.roles),
        "hierarchy": keyer.hierarchy.to_parent_map(),
        "max_states": automaton.max_states,
        "symbols": list(automaton.symbols),
        "pool": [
            [t.target, t.outcome, list(t.events), t.size]
            for t in automaton.pool
        ],
        "states": [
            [
                state.key,
                state.size,
                state.may_continue,
                [[list(pair) for pair in pairs] for pairs in state.active],
                list(state.path),
            ]
            for state in automaton._states
        ],
        "byteorder": "little",
        "eof": True,
    }
    header_bytes = json.dumps(
        header, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    header_bytes += b" " * ((-len(header_bytes)) % 4)
    checksum = hashlib.sha256(header_bytes)
    checksum.update(cells_bytes)
    prefix = TABLE_PREFIX.pack(
        TABLE_MAGIC,
        TABLE_FORMAT_VERSION,
        len(header_bytes),
        len(cells_bytes),
        checksum.digest(),
    )
    return b"".join((prefix, header_bytes, cells_bytes))


def save_table(automaton: PurposeAutomaton, path: "str | Path") -> Path:
    """Atomically persist *automaton* at *path*; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = encode_table(automaton)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_table(
    path: "str | Path",
    expected_fingerprint: Optional[str] = None,
    telemetry=None,
) -> PurposeAutomaton:
    """Read and validate one artifact file (see :func:`decode_table`).

    Adds the file-level reasons ``missing`` and ``unreadable``.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ArtifactError(f"no table artifact at {path}", reason="missing")
    except OSError as exc:
        raise ArtifactError(
            f"table artifact {path} unreadable: {exc}", reason="unreadable"
        ) from exc
    return decode_table(
        data, expected_fingerprint, telemetry, source=str(path)
    )


def decode_table(
    data: bytes,
    expected_fingerprint: Optional[str] = None,
    telemetry=None,
    source: str = "<bytes>",
) -> PurposeAutomaton:
    """Validate RPTB *data* and rebuild the automaton it holds.

    Raises :class:`~repro.errors.ArtifactError` with ``reason`` one of
    ``format``, ``version``, ``truncated``, ``malformed``,
    ``fingerprint``, ``tamper``.  The result has no engine bound; the
    caller binds one (:meth:`PurposeAutomaton.bind`), which rejects a
    fingerprint-preserving mismatch as ``state_mismatch``.
    """
    if len(data) < 8:  # magic + version: what every RPTB version shares
        raise ArtifactError(
            f"table artifact {source} is shorter than its fixed header",
            reason="truncated",
        )
    if data[:4] != TABLE_MAGIC:
        raise ArtifactError(
            f"table artifact {source} has magic {bytes(data[:4])!r}, "
            f"expected {TABLE_MAGIC!r}",
            reason="format",
        )
    version = int.from_bytes(data[4:8], "little")
    if version != TABLE_FORMAT_VERSION:
        raise ArtifactError(
            f"table artifact {source} has version {version}, this reader "
            f"supports {TABLE_FORMAT_VERSION}",
            reason="version",
        )
    if len(data) < TABLE_PREFIX.size:
        raise ArtifactError(
            f"table artifact {source} is shorter than its fixed header",
            reason="truncated",
        )
    _, _, header_len, cells_bytes, checksum = TABLE_PREFIX.unpack_from(data)
    cells_start = TABLE_PREFIX.size + header_len
    if cells_start + cells_bytes != len(data):
        raise ArtifactError(
            f"table artifact {source} holds {len(data) - TABLE_PREFIX.size} "
            f"bytes after its prefix, the prefix declares "
            f"{header_len + cells_bytes}",
            reason="truncated",
        )
    body = memoryview(data)[TABLE_PREFIX.size:]
    if hashlib.sha256(body).digest() != checksum:
        raise ArtifactError(
            f"table artifact {source} does not match its checksum (bit "
            "rot or tampering)",
            reason="tamper",
        )
    try:
        header = json.loads(
            data[TABLE_PREFIX.size:cells_start].decode("utf-8")
        )
        if not isinstance(header, dict):
            raise ValueError("header is not a JSON object")
    except (ValueError, UnicodeDecodeError) as exc:
        raise ArtifactError(
            f"table artifact {source} header does not parse: {exc}",
            reason="malformed",
        ) from exc
    if header.get("format") != TABLE_FORMAT_NAME:
        raise ArtifactError(
            f"table artifact {source} has format {header.get('format')!r}",
            reason="format",
        )
    if header.get("eof") is not True:
        raise ArtifactError(
            f"table artifact {source} is missing its end-of-header marker",
            reason="truncated",
        )
    fingerprint = header.get("fingerprint")
    if (
        expected_fingerprint is not None
        and fingerprint != expected_fingerprint
    ):
        raise ArtifactError(
            f"table artifact {source} was compiled for fingerprint "
            f"{str(fingerprint)[:12]}…, expected "
            f"{expected_fingerprint[:12]}…",
            reason="fingerprint",
        )
    try:
        symbols = [str(key) for key in header["symbols"]]
        pool = [
            Transition(int(t), str(o), tuple(str(e) for e in ev), int(sz))
            for t, o, ev, sz in header["pool"]
        ]
        states = [
            _State(
                key=str(key),
                size=int(size),
                may_continue=bool(may_continue),
                active=tuple(
                    tuple((str(role), str(task)) for role, task in pairs)
                    for pairs in active
                ),
                path=tuple(str(step) for step in path),
            )
            for key, size, may_continue, active, path in header["states"]
        ]
        automaton = PurposeAutomaton(
            fingerprint=str(fingerprint),
            purpose=str(header["purpose"]),
            roles=[str(role) for role in header["roles"]],
            hierarchy=RoleHierarchy.from_parent_map(header["hierarchy"]),
            max_states=int(header["max_states"]),
            telemetry=telemetry,
        )
        if header.get("byteorder") != "little":
            raise ValueError(f"byteorder {header.get('byteorder')!r}")
    except (
        KeyError, TypeError, ValueError, AttributeError, PolicyError
    ) as exc:
        raise ArtifactError(
            f"table artifact {source} header is malformed: {exc!r}",
            reason="malformed",
        ) from exc
    n_states, n_symbols = len(states), len(symbols)
    known = set(symbols)
    if (
        not states
        or cells_bytes != n_states * n_symbols * 4
        or len(known) != n_symbols
        or len({state.key for state in states}) != n_states
        or any(not known.issuperset(state.path) for state in states)
        or any(not REJECTED_STATE <= t.target < n_states for t in pool)
    ):
        raise ArtifactError(
            f"table artifact {source} is self-inconsistent",
            reason="malformed",
        )
    cells = array("i")
    cells.frombytes(data[cells_start:])
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        cells.byteswap()
    if cells and not UNKNOWN <= min(cells) <= max(cells) < len(pool):
        raise ArtifactError(
            f"table artifact {source} has a cell outside its pool",
            reason="malformed",
        )
    automaton._load(states, symbols, pool, cells)
    return automaton
