"""The per-case index of an audit trail (Definition 5's projections).

``AuditTrail.by_case`` groups the trail by case in one pass; ``for_case``
and ``cases`` read from it.  The properties pin them to the plain filter
definitions they replace, and the pass counter pins the cost: auditing a
trail scans its entries a constant number of times, however many cases
it holds.
"""

from __future__ import annotations

import pickle
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from repro.audit import AuditTrail, LogEntry
from repro.audit.stats import BehaviourModel
from repro.audit.xes import export_xes
from repro.core.auditor import PurposeControlAuditor
from repro.scenarios import hospital_day, process_registry, role_hierarchy

_EPOCH = datetime(2010, 3, 12, 8, 0)

# Few cases and few distinct timestamps, so equal timestamps within one
# case and across cases are the common case, not a corner.
_entries = st.builds(
    lambda case, minute, task: LogEntry(
        user="u",
        role="GP",
        action="read",
        obj=None,
        task=task,
        case=case,
        timestamp=_EPOCH + timedelta(minutes=minute),
    ),
    st.sampled_from(["HT-1", "HT-2", "CT-1", "X"]),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["T01", "T02", "T03"]),
)


def _filter_cases(trail: AuditTrail) -> list[str]:
    """The first-appearance case order, by a scan of the trail."""
    seen: dict[str, None] = {}
    for entry in trail:
        seen.setdefault(entry.case, None)
    return list(seen)


def _filter_for_case(trail: AuditTrail, case: str) -> list[LogEntry]:
    """Definition 5's projection, by a scan of the trail."""
    return list(AuditTrail(e for e in trail if e.case == case))


class TestIndexEqualsFilters:
    @given(st.lists(_entries, max_size=30))
    @settings(max_examples=200)
    def test_by_case_for_case_and_cases_match_the_scans(self, entries):
        trail = AuditTrail(entries)
        index = trail.by_case()
        assert list(index) == trail.cases() == _filter_cases(trail)
        for case in [*_filter_cases(trail), "unknown-case"]:
            expected = _filter_for_case(trail, case)
            assert list(trail.for_case(case)) == expected
            assert list(index.get(case, AuditTrail())) == expected
        # Every entry lands in exactly one sub-trail.
        assert sum(len(sub) for sub in index.values()) == len(trail)

    def test_empty_trail(self):
        trail = AuditTrail()
        assert dict(trail.by_case()) == {}
        assert trail.cases() == []
        assert list(trail.for_case("HT-1")) == []

    def test_index_is_built_once_and_read_only(self):
        trail = AuditTrail(
            [
                LogEntry("u", "GP", "read", None, "T01", "HT-1", _EPOCH),
                LogEntry("u", "GP", "read", None, "T01", "HT-2", _EPOCH),
            ]
        )
        assert trail.for_case("HT-1") is trail.by_case()["HT-1"]
        assert trail.for_case("HT-1") is trail.for_case("HT-1")
        with pytest.raises(TypeError):
            trail.by_case()["HT-3"] = AuditTrail()  # type: ignore[index]
        copy = pickle.loads(pickle.dumps(trail))
        assert copy == trail and copy.cases() == trail.cases()


class _CountingEntries(list):
    """An entry list that counts full passes (``iter`` calls) over it."""

    passes = 0

    def __iter__(self):
        type(self).passes += 1
        return super().__iter__()


def _passes_over(trail: AuditTrail, drive) -> int:
    counted = _CountingEntries(trail._entries)
    trail._entries = counted
    _CountingEntries.passes = 0
    drive(trail)
    return _CountingEntries.passes


def _day(cases: int) -> AuditTrail:
    return hospital_day(cases, seed=11, violation_rate=0.2).trail


@pytest.fixture(scope="module")
def auditor():
    return PurposeControlAuditor(
        process_registry(), hierarchy=role_hierarchy()
    )


class TestProjectionIsOnePass:
    """Per-case projection must not rescan the trail once per case."""

    @pytest.mark.parametrize(
        "drive",
        [
            pytest.param(lambda a, t: a.audit(t), id="audit"),
            pytest.param(lambda a, t: export_xes(t), id="export_xes"),
            pytest.param(
                lambda a, t: BehaviourModel().fit(t).rank_cases(t),
                id="behaviour-model",
            ),
        ],
    )
    def test_passes_do_not_grow_with_the_case_count(self, auditor, drive):
        small, large = _day(6), _day(24)
        assert len(large.cases()) == 4 * len(small.cases())
        small_passes = _passes_over(small, lambda t: drive(auditor, t))
        large_passes = _passes_over(large, lambda t: drive(auditor, t))
        assert small_passes == large_passes
        assert large_passes <= 3
