"""The console's live reads against a running router stay cheap.

A case's canonical digest needs its replay result rendered as canonical
JSON — the expensive part of a verdict record.  ``/api/v1/tenants``
only counts purposes and states, so it must never compute one, and
``/api/v1/verdicts`` computes them for the page it returns, not for
every case the daemon holds.  Neither may change what is returned.
"""

import pytest

import repro.serve.core
import repro.testing.differential
from repro.control import ControlPlane
from repro.scenarios import paper_audit_trail, process_registry, role_hierarchy
from repro.serve import ServeConfig, ShardRouter


@pytest.fixture
def router():
    router = ShardRouter(
        process_registry(),
        hierarchy=role_hierarchy(),
        config=ServeConfig(shards=2),
    )
    router.start()
    for entry in paper_audit_trail():
        assert router.submit(entry, block=True).accepted
    assert router.wait_idle(timeout=30)
    yield router
    router.drain()


@pytest.fixture
def digest_calls(monkeypatch):
    """Count every canonical-digest computation from here on."""
    calls = []
    real = repro.testing.differential.canonical_digest

    def counting(result):
        calls.append(result)
        return real(result)

    for module in (repro.serve.core, repro.testing.differential):
        monkeypatch.setattr(module, "canonical_digest", counting)
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
