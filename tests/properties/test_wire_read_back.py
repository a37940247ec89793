"""Property: an entry the wire accepts reads back as itself, everywhere.

For any ``entry`` line the wire decoder accepts, with zoned timestamps
(offsets and ``Z``) and whitespace, ``/``, ``[``, ``]`` and non-ASCII
text in every field, the entry it decodes to

* renders a store row that reads back as that entry;
* lands in a hash chain that verifies;
* gives every case the same digest live, after a resume from the
  write-ahead log, and after a store-only restart.

Lines the decoder refuses are not entries, so they are skipped.
"""

import json
import tempfile
from datetime import datetime
from pathlib import Path
from typing import Optional

from hypothesis import assume, given, settings, strategies as st

from repro.audit.model import LogEntry
from repro.audit.store import GENESIS, AuditStore, _entry_from_row, _entry_row
from repro.errors import ReproError
from repro.scenarios import process_registry, role_hierarchy
from repro.serve import ServeConfig, ShardRouter
from repro.serve.protocol import decode_message, entry_from_message

_REGISTRY = process_registry()
_HIERARCHY = role_hierarchy()

#: What a reader could trip on: whitespace (``str.strip`` also strips
#: ``\x85`` and ``\u2028``), the object syntax's ``/``, ``[`` and ``]``,
#: and text beyond ASCII.
_ODD = st.text(
    st.one_of(
        st.sampled_from(" \t\n\x85\u2028/[]é张\U0001F600"),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=5,
)


def _text(*known: str) -> st.SearchStrategy[str]:
    """The paper's own values, odd text, or the two run together."""
    paper = st.sampled_from(known)
    return st.one_of(
        paper, _ODD, st.builds(str.__add__, paper, _ODD),
        st.builds(str.__add__, _ODD, paper),
    )


_OBJECTS = st.one_of(
    st.none(),
    _text("[Jane]EPR/Clinical", "ClinicalTrial/Criteria", "ScanSoftware"),
    st.builds("[{}]{}/{}".format, _ODD, _ODD, _ODD),
)


def _stamp(when: datetime, form: str, minutes: int) -> str:
    if form == "paper":
        return when.strftime("%Y%m%d%H%M")
    if form == "naive":
        return when.isoformat()
    if form == "Z":
        return when.isoformat() + "Z"
    sign = "+" if minutes >= 0 else "-"
    return f"{when.isoformat()}{sign}{abs(minutes) // 60:02d}:{abs(minutes) % 60:02d}"


_TIMESTAMPS = st.builds(
    _stamp,
    st.datetimes(min_value=datetime(2000, 1, 2), max_value=datetime(2099, 12, 30)),
    st.sampled_from(("paper", "naive", "Z", "offset")),
    st.integers(-(23 * 60 + 59), 23 * 60 + 59),
)

_MESSAGES = st.fixed_dictionaries(
    {
        "op": st.just("entry"),
        "user": _text("John", "Bob", "Charlie"),
        "role": _text("GP", "Cardiologist", "Radiologist"),
        "action": _text("read", "write", "execute", "cancel"),
        "obj": _OBJECTS,
        "task": _text("T01", "T02", "T05", "T06", "T91", "T92"),
        "case": _text("HT-1", "HT-2", "CT-1"),
        "ts": _TIMESTAMPS,
        "status": st.sampled_from(("success", "failure")),
    }
)

_LINES = st.builds(
    lambda message, ascii_only: json.dumps(
        message, ensure_ascii=ascii_only
    ).encode("utf-8"),
    _MESSAGES,
    st.booleans(),
)


def _decode(line: bytes) -> Optional[LogEntry]:
    try:
        return entry_from_message(decode_message(line))
    except ReproError:
        return None


def _router(tmp: Path, wal: bool) -> ShardRouter:
    router = ShardRouter(
        _REGISTRY,
        hierarchy=_HIERARCHY,
        config=ServeConfig(
            store_path=str(tmp / "audit.db"),
            wal_dir=str(tmp / "wal") if wal else None,
            flush_max_batch=10_000,  # flushes only when the test says so
        ),
    )
    router.start()
    return router


@settings(max_examples=40, deadline=None)
@given(st.lists(_LINES, min_size=1, max_size=6))
def test_an_accepted_entry_reads_back_as_itself(lines):
    accepted = [
        (line, entry)
        for line, entry in ((line, _decode(line)) for line in lines)
        if entry is not None
    ]
    assume(accepted)
    entries = [entry for _, entry in accepted]
    prev_hash = GENESIS
    for entry in entries:
        row = _entry_row(entry, prev_hash)
        assert _entry_from_row(row[:8]) == entry
        prev_hash = row[-1]

    with tempfile.TemporaryDirectory() as directory:
        tmp = Path(directory)
        first = _router(tmp, wal=True)
        for line, entry in accepted:
            assert first.submit(entry, line=line).accepted
        live = first.results()
        # Crash as kill -9 would: every entry is in the WAL, none stored.
        first._wal.close()
        first._writer.queue.put(None)
        first._writer.join()

        resumed = _router(tmp, wal=True)
        assert resumed.recovery_report.wal_records == len(entries)
        assert resumed.results() == live
        assert resumed.drain().store_intact is True

        restarted = _router(tmp, wal=False)
        assert restarted.recovery_report.store_entries == len(entries)
        assert restarted.results() == live
        restarted.drain()
        with AuditStore(str(tmp / "audit.db")) as store:
            assert list(store.iter_entries()) == entries
            store.verify_integrity()
