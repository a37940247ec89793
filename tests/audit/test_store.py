"""Tests for the SQLite audit store and its hash-chain integrity."""

from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest

from repro.audit import AuditStore, AuditTrail, LogEntry, Status
from repro.errors import IntegrityError, MalformedEntryError
from repro.policy import ObjectRef
from repro.scenarios import paper_audit_trail


@pytest.fixture
def store():
    with AuditStore(":memory:") as s:
        yield s


@pytest.fixture
def loaded(store):
    store.append_many(paper_audit_trail())
    return store


class TestAppendAndQuery:
    def test_append_returns_increasing_seq(self, store):
        trail = paper_audit_trail()
        first = store.append(trail[0])
        second = store.append(trail[1])
        assert second == first + 1

    def test_len_counts_entries(self, loaded):
        assert len(loaded) == len(paper_audit_trail())

    def test_query_all_round_trips(self, loaded):
        assert loaded.query() == paper_audit_trail()

    def test_query_by_case(self, loaded):
        ht1 = loaded.query(case="HT-1")
        assert len(ht1) == 16
        assert all(e.case == "HT-1" for e in ht1)

    def test_query_by_user(self, loaded):
        bobs = loaded.query(user="Bob")
        assert all(e.user == "Bob" for e in bobs)
        assert len(bobs) == 15

    def test_query_by_object_subtree(self, loaded):
        jane = loaded.query(obj=ObjectRef.parse("[Jane]EPR"))
        assert all(str(e.obj).startswith("[Jane]EPR") for e in jane)
        assert len(jane) > 0

    def test_query_time_range(self, loaded):
        april = loaded.query(since=datetime(2010, 4, 1))
        assert all(e.timestamp >= datetime(2010, 4, 1) for e in april)
        march = loaded.query(until=datetime(2010, 3, 31, 23, 59))
        assert len(april) + len(march) == len(loaded.query())

    def test_combined_filters(self, loaded):
        result = loaded.query(case="HT-1", user="Charlie")
        assert len(result) == 3

    def test_cases_in_first_seen_order(self, loaded):
        cases = loaded.cases()
        assert cases[0] == "HT-1"
        assert "CT-1" in cases

    def test_cases_touching(self, loaded):
        cases = loaded.cases_touching(ObjectRef.parse("[Jane]EPR"))
        assert set(cases) == {"HT-1", "HT-11"}

    def test_objectless_entries_round_trip(self, store):
        cancel = LogEntry.at(
            "John", "GP", "cancel", None, "T02", "HT-1", "201003121216",
            Status.FAILURE,
        )
        store.append(cancel)
        fetched = store.query()[0]
        assert fetched.obj is None
        assert fetched.failed


class TestAtomicBatchAppend:
    """append_many is one transaction: a bad entry rolls everything back."""

    def test_failed_batch_leaves_no_partial_prefix(self, store):
        trail = paper_audit_trail()
        batch = list(trail[:5])
        # a stringly-typed status cannot be serialized (no .value)
        batch.insert(3, replace(trail[5], status="oops"))
        with pytest.raises(MalformedEntryError) as excinfo:
            store.append_many(batch)
        assert excinfo.value.position == 3
        # NOTHING was written — not even the three good leading entries
        assert len(store) == 0
        assert store.query() == AuditTrail([])
        store.verify_integrity()  # the (empty) chain is still coherent

    def test_failed_batch_preserves_earlier_appends(self, store):
        trail = paper_audit_trail()
        store.append_many(trail[:3])
        bad = [trail[3], replace(trail[4], status="oops")]
        with pytest.raises(MalformedEntryError):
            store.append_many(bad)
        assert len(store) == 3
        store.verify_integrity()
        # and the store is still appendable afterwards
        store.append(trail[3])
        assert len(store) == 4
        store.verify_integrity()

    def test_successful_batch_counts_entries(self, store):
        written = store.append_many(paper_audit_trail())
        assert written == len(paper_audit_trail()) == len(store)

    def test_duplicate_entry_in_one_batch_is_chained_not_merged(self, store):
        """The same entry twice is two rows, each with its own link."""
        trail = paper_audit_trail()
        store.append_many([trail[0], trail[0], trail[1]])
        assert len(store) == 3
        store.verify_integrity()

    def test_reentrant_write_during_batch_is_rejected_atomically(self, store):
        """A batch iterable that writes to the same store mid-iteration
        would commit a partial prefix (sqlite3 connection context
        managers do not nest — the inner commit ends the outer
        transaction) and fork the hash chain: two rows chaining off the
        same predecessor, i.e. a duplicate-seq link.  The store must
        refuse the reentrant write and roll the whole batch back."""
        trail = paper_audit_trail()

        def evil_batch():
            yield trail[0]
            yield trail[1]
            # side effect: the iterable appends to the store it is
            # being consumed into
            store.append(trail[2])
            yield trail[3]

        from repro.errors import AuditError

        with pytest.raises(AuditError, match="reentrant"):
            store.append_many(evil_batch())
        # nothing from the batch NOR the sneaky inner append survived
        assert len(store) == 0
        store.verify_integrity()
        # the guard resets: the store remains writable afterwards
        store.append(trail[0])
        store.append_many(trail[1:3])
        assert len(store) == 3
        store.verify_integrity()

    def test_iterable_raising_mid_batch_rolls_back(self, store):
        trail = paper_audit_trail()

        def exploding_batch():
            yield trail[0]
            yield trail[1]
            raise RuntimeError("source hiccup")

        with pytest.raises(RuntimeError, match="source hiccup"):
            store.append_many(exploding_batch())
        assert len(store) == 0
        store.verify_integrity()
        store.append_many(trail[:2])
        assert len(store) == 2
        store.verify_integrity()


class TestTimestampNormalization:
    """Aware and naive timestamps must compare meaningfully in queries."""

    def entry_at(self, when, case="TZ-1", task="T1"):
        return LogEntry(
            user="Sam", role="Staff", action="work", obj=None,
            task=task, case=case, timestamp=when,
        )

    def test_aware_entries_stored_as_naive_utc(self, store):
        plus_two = timezone(timedelta(hours=2))
        store.append(
            self.entry_at(datetime(2010, 5, 1, 12, 0, tzinfo=plus_two))
        )
        fetched = store.query()[0]
        assert fetched.timestamp.tzinfo is None
        assert fetched.timestamp == datetime(2010, 5, 1, 10, 0)

    def test_mixed_aware_and_naive_query_bounds(self, store):
        plus_two = timezone(timedelta(hours=2))
        store.append_many([
            self.entry_at(datetime(2010, 5, 1, 10, 0), task="T1"),
            # 12:00+02:00 == 10:30 UTC — between the two naive entries
            self.entry_at(
                datetime(2010, 5, 1, 12, 30, tzinfo=plus_two), task="T2"
            ),
            self.entry_at(datetime(2010, 5, 1, 11, 0), task="T3"),
        ])
        # an aware bound filters against the naive-UTC storage form
        since = datetime(2010, 5, 1, 12, 15, tzinfo=plus_two)  # 10:15 UTC
        late = store.query(since=since)
        assert [e.task for e in late] == ["T2", "T3"]
        until = datetime(2010, 5, 1, 12, 45, tzinfo=plus_two)  # 10:45 UTC
        early = store.query(until=until)
        assert [e.task for e in early] == ["T1", "T2"]
        store.verify_integrity()


class TestPurgeOutOfOrder:
    def entry_at(self, when, task):
        return LogEntry(
            user="Sam", role="Staff", action="work", obj=None,
            task=task, case="P-1", timestamp=when,
        )

    def test_young_entry_blocks_purging_older_successors(self, store):
        # appended out of chronological order: old, young, old
        store.append_many([
            self.entry_at(datetime(2010, 1, 1), "T1"),
            self.entry_at(datetime(2010, 6, 1), "T2"),
            self.entry_at(datetime(2010, 2, 1), "T3"),
        ])
        purged = store.purge_before(datetime(2010, 3, 1))
        # only the prefix strictly older than the cutoff goes: T1.  T2 is
        # younger and blocks T3, even though T3 is old enough.
        assert purged == 1
        assert {e.task for e in store.query()} == {"T2", "T3"}
        store.verify_integrity()

    def test_aware_cutoff_is_normalized(self, store):
        store.append_many([
            self.entry_at(datetime(2010, 1, 1, 10, 0), "T1"),
            self.entry_at(datetime(2010, 1, 1, 12, 0), "T2"),
        ])
        plus_two = timezone(timedelta(hours=2))
        # 13:00+02:00 == 11:00 UTC: purges T1 (10:00), keeps T2 (12:00)
        purged = store.purge_before(
            datetime(2010, 1, 1, 13, 0, tzinfo=plus_two)
        )
        assert purged == 1
        assert [e.task for e in store.query()] == ["T2"]
        store.verify_integrity()


class TestIntegrity:
    def test_fresh_store_is_intact(self, store):
        store.verify_integrity()
        assert store.is_intact()

    def test_loaded_store_is_intact(self, loaded):
        assert loaded.is_intact()

    def test_modified_row_detected(self, loaded):
        loaded.tamper(3, user="Mallory")
        with pytest.raises(IntegrityError) as excinfo:
            loaded.verify_integrity()
        assert excinfo.value.first_bad_seq == 3
        assert not loaded.is_intact()

    def test_case_relabeling_detected(self, loaded):
        # The mimicry cover-up: relabeling an access to another case.
        loaded.tamper(7, case_id="HT-99")
        assert not loaded.is_intact()

    def test_status_flip_detected(self, loaded):
        loaded.tamper(3, status="success")
        assert not loaded.is_intact()

    def test_tamper_rejects_unknown_columns(self, loaded):
        with pytest.raises(ValueError):
            loaded.tamper(1, hash="0" * 64)

    @pytest.mark.parametrize(
        "column, value",
        [
            ("user", "Mallory"),
            ("role", "Admin"),
            ("action", "exfiltrate"),
            ("obj", "[Mallory]EPR"),
            ("task", "T99"),
            ("case_id", "HT-99"),
            ("status", "failure"),
        ],
    )
    def test_every_tamperable_column_is_detected(self, loaded, column, value):
        loaded.tamper(5, **{column: value})
        with pytest.raises(IntegrityError) as excinfo:
            loaded.verify_integrity()
        assert excinfo.value.first_bad_seq == 5

    @pytest.mark.parametrize("hours", [0, 2])
    def test_a_zoned_ts_is_detected(self, loaded, hours):
        """The store writes naive UTC only, and a parsed entry keeps
        naive UTC: a ``ts`` rewritten with a zone is a modification,
        even where it names the same instant (``+00:00``)."""
        [stored] = loaded._connection.execute(
            "SELECT ts FROM audit_log WHERE seq = 5"
        ).fetchone()
        zoned = (
            datetime.fromisoformat(stored)
            .replace(tzinfo=timezone.utc)
            .astimezone(timezone(timedelta(hours=hours)))
            .isoformat()
        )
        loaded._connection.execute(
            "UPDATE audit_log SET ts = ? WHERE seq = 5", (zoned,)
        )
        with pytest.raises(IntegrityError) as excinfo:
            loaded.verify_integrity()
        assert excinfo.value.first_bad_seq == 5

    def test_undecodable_row_is_an_integrity_breach(self, loaded):
        # garbage that no longer parses as a Status: verify_integrity
        # reports it as tampering, not as a crash
        loaded.tamper(4, status="not-a-status")
        with pytest.raises(IntegrityError) as excinfo:
            loaded.verify_integrity()
        assert excinfo.value.first_bad_seq == 4
        assert "no longer decodes" in str(excinfo.value)


class TestQuarantinedReads:
    def test_malformed_row_raises_without_quarantine(self, loaded):
        loaded.tamper(4, status="not-a-status")
        with pytest.raises(MalformedEntryError) as excinfo:
            loaded.query()
        assert excinfo.value.position == 4

    def test_malformed_row_diverted_to_quarantine(self, loaded):
        from repro.core.resilience import Quarantine

        loaded.tamper(4, status="not-a-status")
        quarantine = Quarantine()
        trail = loaded.query(quarantine=quarantine)
        assert len(trail) == len(paper_audit_trail()) - 1
        assert len(quarantine) == 1
        record = quarantine.entries[0]
        assert record.source == "store"
        assert record.position == 4
        assert "not-a-status" in record.raw

    def test_quarantine_telemetry_counter(self, loaded):
        from repro.core.resilience import Quarantine
        from repro.obs import Telemetry

        loaded.tamper(4, status="not-a-status")
        telemetry = Telemetry.create()
        quarantine = Quarantine(telemetry)
        loaded.query(quarantine=quarantine)
        assert telemetry.registry.counter(
            "quarantined_entries_total"
        ).value(source="store") == 1


class TestStoreTrailInterop:
    def test_store_query_feeds_algorithm(self, loaded):
        from repro.bpmn import encode
        from repro.core import ComplianceChecker
        from repro.scenarios import healthcare_treatment_process, role_hierarchy

        checker = ComplianceChecker(
            encode(healthcare_treatment_process()), role_hierarchy()
        )
        assert checker.check(loaded.query(case="HT-1")).compliant
        assert not checker.check(loaded.query(case="HT-11")).compliant

    def test_round_trip_preserves_order_strictly(self, loaded):
        AuditTrail(loaded.query().entries, strict=True)


class TestKeysetPagination:
    def test_after_seq_resumes_where_the_page_ended(self, loaded):
        first = loaded.entries_with_seq(limit=10)
        assert len(first) == 10
        assert [seq for seq, _ in first] == list(range(1, 11))
        second = loaded.entries_with_seq(after_seq=first[-1][0], limit=10)
        assert second[0][0] == 11
        assert all(seq > first[-1][0] for seq, _ in second)

    def test_pages_reassemble_the_full_trail(self, loaded):
        pages, cursor = [], 0
        while True:
            page = loaded.entries_with_seq(after_seq=cursor, limit=7)
            if not page:
                break
            cursor = page[-1][0]
            pages.extend(entry for _, entry in page)
        assert pages == list(loaded.query().entries)

    def test_query_supports_the_same_cursor(self, loaded):
        total = len(loaded)
        trail = loaded.query(after_seq=total - 3)
        assert len(trail) == 3
        assert len(loaded.query(after_seq=total)) == 0

    def test_case_filter_composes_with_pagination(self, loaded):
        page = loaded.entries_with_seq(case="HT-1", limit=3)
        assert len(page) == 3
        assert all(entry.case == "HT-1" for _, entry in page)

    def test_negative_limit_is_refused(self, loaded):
        from repro.errors import AuditError

        with pytest.raises(AuditError, match="non-negative"):
            loaded.query(limit=-1)

    def test_cases_prefix_filter(self, loaded):
        assert loaded.cases(prefix="CT") == ["CT-1"]
        assert set(loaded.cases(prefix="HT")) == {
            "HT-1", "HT-2", "HT-10", "HT-11", "HT-20", "HT-21", "HT-30",
        }
        # Prefixes match whole case-id segments, not raw characters: a
        # prefix "H" matches no "HT-*" case.
        assert loaded.cases(prefix="H") == []


class TestControlLog:
    def test_record_and_read_back(self, loaded):
        seq = loaded.record_control(
            "dismiss", case="HT-10", actor="alice", reason="known fault"
        )
        assert seq == 1
        records = loaded.control_records()
        assert len(records) == 1
        record = records[0]
        assert record["action"] == "dismiss"
        assert record["case"] == "HT-10"
        assert record["actor"] == "alice"
        assert record["reason"] == "known fault"
        assert loaded.control_records(case="HT-99") == []

    def test_control_chain_is_separate_from_the_trail_chain(self, loaded):
        before = len(loaded)
        loaded.record_control("requeue", case="HT-10")
        # Operator actions never interleave with (or re-anchor) the
        # audit trail itself.
        assert len(loaded) == before
        loaded.verify_integrity()

    def test_empty_action_is_refused(self, loaded):
        from repro.errors import AuditError

        with pytest.raises(AuditError, match="action"):
            loaded.record_control("")

    def test_tampered_control_row_is_detected(self, loaded):
        loaded.record_control("dismiss", case="HT-10", actor="alice")
        loaded.record_control("requeue", case="HT-11", actor="bob")
        with loaded._write_transaction():
            loaded._connection.execute(
                "UPDATE control_log SET actor = 'mallory' WHERE seq = 1"
            )
        with pytest.raises(IntegrityError):
            loaded.verify_integrity()
