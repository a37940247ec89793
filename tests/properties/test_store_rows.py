"""Property: the store's row builder hashes byte for byte as ``json.dumps``.

``AuditStore`` composes each row's canonical form directly instead of
calling ``json.dumps(..., sort_keys=True)``.  The chain hashes must not
move by one byte, or every store written before would fail its
integrity check.  The reference formula is kept here as the oracle:

* for any text in any field (quotes, backslashes, control characters,
  non-BMP characters), with or without an object, with naive and
  timezone-aware timestamps and both statuses, the builder's hash is
  the reference hash;
* a chain written row by row with the reference formula passes
  ``verify_integrity``, and a batch written by ``append_many`` verifies
  under the reference.

Objects are drawn as any :class:`ObjectRef` that constructs: one whose
text would not read back as itself (``ObjectRef(None, (" x",))`` prints
as ``" x"``, which parses as ``x``) cannot be built, which
``tests/policy/test_model.py`` checks, so every chain verifies.
"""

import hashlib
import json
from datetime import datetime, timedelta, timezone

from hypothesis import given, settings, strategies as st

from repro.audit.model import LogEntry, Status
from repro.audit.store import GENESIS, AuditStore, _entry_row
from repro.errors import PolicyError
from repro.policy.model import ObjectRef


def reference_fields(entry: LogEntry) -> dict:
    """The eight stored fields, timestamp in naive UTC."""
    when = entry.timestamp
    if when.tzinfo is not None:
        when = when.astimezone(timezone.utc).replace(tzinfo=None)
    return {
        "user": entry.user,
        "role": entry.role,
        "action": entry.action,
        "obj": str(entry.obj) if entry.obj is not None else None,
        "task": entry.task,
        "case": entry.case,
        "ts": when.isoformat(),
        "status": entry.status.value,
    }


def reference_hash(prev_hash: str, entry: LogEntry) -> str:
    """The chain hash as ``json.dumps`` defines it (the oracle)."""
    payload = json.dumps(reference_fields(entry), sort_keys=True)
    return hashlib.sha256((prev_hash + payload).encode("utf-8")).hexdigest()


#: Every code point UTF-8 can encode, with the ones JSON escapes and
#: the ones outside the BMP drawn often.
_CHARS = st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\b\u2028\ufeff\u00e9\U0001F600\U0010FFFF'),
    st.characters(exclude_categories=("Cs",)),
)
_TEXT = st.text(_CHARS, max_size=12)
_NAME = st.text(_CHARS, min_size=1, max_size=8)


def _constructs(parts: tuple) -> bool:
    try:
        ObjectRef(*parts)
    except PolicyError:
        return False
    return True


_OBJECTS = st.one_of(
    st.none(),
    st.tuples(
        st.one_of(st.none(), _NAME),
        st.lists(_NAME, min_size=1, max_size=3).map(tuple),
    )
    .filter(_constructs)
    .map(lambda parts: ObjectRef(*parts)),
)


_ZONES = st.integers(-(24 * 60 - 1), 24 * 60 - 1).map(
    lambda minutes: timezone(timedelta(minutes=minutes))
)
_TIMESTAMPS = st.datetimes(
    min_value=datetime(1000, 1, 1), max_value=datetime(9000, 1, 1)
)
_WHEN = st.one_of(
    _TIMESTAMPS,
    st.builds(lambda when, zone: when.replace(tzinfo=zone), _TIMESTAMPS, _ZONES),
)

entries = st.builds(
    LogEntry,
    user=_TEXT,
    role=_TEXT,
    action=_TEXT,
    obj=_OBJECTS,
    task=_TEXT,
    case=_TEXT,
    timestamp=_WHEN,
    status=st.sampled_from(Status),
)
_PREV = st.one_of(
    st.just(GENESIS),
    st.binary(min_size=32, max_size=32).map(bytes.hex),
)


@settings(max_examples=300, deadline=None)
@given(entries, _PREV)
def test_the_builder_hashes_as_json_dumps(entry, prev_hash):
    row = _entry_row(entry, prev_hash)
    assert row[-1] == reference_hash(prev_hash, entry)
    assert row[-2] == prev_hash


@settings(max_examples=60, deadline=None)
@given(st.lists(entries, min_size=1, max_size=6))
def test_a_reference_chain_verifies(batch):
    """Rows hashed with ``json.dumps`` pass ``verify_integrity``."""
    with AuditStore(":memory:") as store:
        prev_hash = GENESIS
        for entry in batch:
            digest = reference_hash(prev_hash, entry)
            fields = reference_fields(entry)
            store._connection.execute(
                "INSERT INTO audit_log (user, role, action, obj, task, "
                "case_id, ts, status, prev_hash, hash) "
                "VALUES (:user, :role, :action, :obj, :task, :case, :ts, "
                ":status, :prev_hash, :hash)",
                {**fields, "prev_hash": prev_hash, "hash": digest},
            )
            prev_hash = digest
        store._connection.commit()
        store.verify_integrity()


@settings(max_examples=60, deadline=None)
@given(st.lists(entries, min_size=1, max_size=6))
def test_an_append_many_batch_verifies_under_the_reference(batch):
    """What ``append_many`` writes re-hashes, row by row, to the stored
    chain under ``json.dumps``."""
    with AuditStore(":memory:") as store:
        assert store.append_many(batch) == len(batch)
        rows = store._connection.execute(
            "SELECT prev_hash, hash FROM audit_log ORDER BY seq"
        ).fetchall()
        stored = list(store.iter_entries())
        prev_hash = GENESIS
        for (stored_prev, stored_hash), entry in zip(rows, stored):
            assert stored_prev == prev_hash
            assert stored_hash == reference_hash(prev_hash, entry)
            prev_hash = stored_hash
        assert [entry.obj for entry in stored] == [entry.obj for entry in batch]
        store.verify_integrity()
