"""The console's live reads against a running router stay cheap.

A case's canonical digest needs its replay result rendered as canonical
JSON — the expensive part of a verdict record.  ``/api/v1/tenants``
only counts purposes and states, so it must never compute one;
``/api/v1/verdicts`` computes them for the page it returns, not for
every case the daemon holds; a case read computes only that case's, and
the quarantine list none.  None of them may change what is returned.
The reads run on other threads than the stream's; the router's
admission lock keeps each record whole while entries are replayed.
"""

import sys
import threading

import pytest

import repro.core.monitor
from repro.control import ControlPlane
from repro.core.auditor import PurposeControlAuditor
from repro.scenarios import (
    hospital_day,
    paper_audit_trail,
    process_registry,
    role_hierarchy,
)
from repro.serve import ServeConfig, ShardRouter
from repro.testing import FaultInjector, FaultPlan, canonical_digest


def _stream_paper_trail(checker_wrapper=None, **config):
    router = ShardRouter(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(**config),
        checker_wrapper=checker_wrapper,
    )
    router.start()
    for entry in paper_audit_trail():
        assert router.submit(entry).accepted
    return router


@pytest.fixture
def router():
    router = _stream_paper_trail()
    yield router
    router.drain()


@pytest.fixture
def quarantining_router():
    """The paper trail with CT-1 over its processing budget: its third
    entry times it out, so it is quarantined with a replay (and so a
    digest) to show; the seven treatment cases are not."""
    router = _stream_paper_trail(
        FaultInjector(FaultPlan(slow_s=0.6), purposes=("clinicaltrial",)),
        case_timeout_s=1.0,
    )
    yield router
    router.drain()


@pytest.fixture
def digest_calls(monkeypatch):
    """Count every canonical-digest computation from here on (the
    engine's record builder calls the name its module imported)."""
    calls = []
    real = repro.core.monitor.canonical_digest

    def counting(result):
        calls.append(result)
        return real(result)

    monkeypatch.setattr(repro.core.monitor, "canonical_digest", counting)
    return calls


def test_tenants_never_computes_a_digest(router, digest_calls):
    status, payload, _ = ControlPlane(router=router).handle(
        "GET", "/api/v1/tenants", {}, None
    )
    assert status == 200
    assert digest_calls == []
    by_purpose = {t["purpose"]: t for t in payload["tenants"]}
    assert by_purpose["treatment"]["cases"] == 7
    assert by_purpose["treatment"]["states"]["infringing"] == 5
    assert by_purpose["clinicaltrial"]["cases"] == 1


def test_verdicts_digest_only_the_returned_page(router, digest_calls):
    full = router.results()
    digest_calls.clear()
    plane = ControlPlane(router=router)
    status, payload, _ = plane.handle(
        "GET", "/api/v1/verdicts", {"limit": "3"}, None
    )
    assert status == 200
    assert len(digest_calls) == 3
    assert payload["verdicts"] == [full[case] for case in sorted(full)[:3]]
    assert payload["next_after_case"] == sorted(full)[2]


def test_digest_free_results_only_drop_the_digest(router):
    full = router.results()
    summaries = router.results(digests=False)
    assert summaries.keys() == full.keys()
    for case, record in full.items():
        assert summaries[case] == {
            key: value for key, value in record.items() if key != "digest"
        }
        assert router.case_record(case) == record


def test_a_case_read_digests_only_that_case(router, digest_calls):
    full = router.results()
    digest_calls.clear()
    plane = ControlPlane(router=router)
    status, payload, _ = plane.handle("GET", "/api/v1/cases/HT-1", {}, None)
    assert status == 200
    assert len(digest_calls) == 1
    assert {key: payload[key] for key in full["HT-1"]} == full["HT-1"]
    status, _, _ = plane.handle("GET", "/api/v1/cases/HT-404", {}, None)
    assert status == 404


def test_quarantine_list_never_computes_a_digest(
    quarantining_router, digest_calls
):
    [case] = quarantining_router.quarantined_cases()
    record = quarantining_router.case_record(case)
    digest_calls.clear()
    status, payload, _ = ControlPlane(router=quarantining_router).handle(
        "GET", "/api/v1/quarantine", {}, None
    )
    assert status == 200
    assert digest_calls == []
    assert payload["quarantined"] == [
        {
            "case": case,
            "kind": "timeout",
            "purpose": record["purpose"],
            "state": record["state"],
        }
    ]


def test_a_quarantined_case_read_digests_only_that_case(
    quarantining_router, digest_calls
):
    [case] = quarantining_router.quarantined_cases()
    record = quarantining_router.case_record(case)
    digest_calls.clear()
    status, payload, _ = ControlPlane(router=quarantining_router).handle(
        "GET", f"/api/v1/quarantine/{case}", {}, None
    )
    assert status == 200
    assert len(digest_calls) == 1
    assert payload["kind"] == "timeout"
    assert {key: payload[key] for key in record} == record


def test_reads_beside_ingest_never_tear_and_change_nothing():
    """Two threads stream disjoint cases while three read the console's
    views, with the interpreter switching threads every 10 µs: no read
    fails, and every case ends with its batch digest."""
    trail = hospital_day(40, violation_rate=0.3, seed=5).trail
    cases = trail.cases()
    streams = [
        [entry for entry in trail if entry.case in cases[half::2]]
        for half in (0, 1)
    ]
    router = ShardRouter(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(),
    )
    router.start()
    plane = ControlPlane(router=router)
    streaming = threading.Event()
    streaming.set()
    errors: list[BaseException] = []

    def submit(entries):
        try:
            for entry in entries:
                assert router.submit(entry).accepted
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    def read():
        try:
            while streaming.is_set():
                router.statistics()
                router.results()
                plane.handle("GET", "/api/v1/tenants", {}, None)
                plane.handle("GET", f"/api/v1/cases/{cases[0]}", {}, None)
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    writers = [threading.Thread(target=submit, args=(s,)) for s in streams]
    readers = [threading.Thread(target=read) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        streaming.clear()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        streaming.clear()
    try:
        assert not any(t.is_alive() for t in writers + readers)
        assert errors == []
        served = router.results()
    finally:
        router.drain()
    batch = PurposeControlAuditor(
        process_registry(), hierarchy=role_hierarchy()
    ).audit(trail)
    assert set(served) == set(cases)
    for case, result in batch.cases.items():
        if result.replay is not None:
            assert served[case]["digest"] == canonical_digest(result.replay)
