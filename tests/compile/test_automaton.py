"""Tests for the lazy subset-construction purpose automaton."""

import json
from datetime import datetime, timedelta

import pytest

from repro.audit import LogEntry, Status
from repro.bpmn import encode
from repro.compile import (
    ERR_KEY,
    REJECTED_STATE,
    EntryKeyer,
    PurposeAutomaton,
    compile_automaton,
    decode_table,
    encode_table,
    fingerprint_encoded,
)
from repro.core import ComplianceChecker
from repro.errors import ArtifactError, AutomatonExplosionError
from repro.obs import MetricsRegistry, Telemetry
from repro.policy.hierarchy import RoleHierarchy
from repro.scenarios import sequential_process
from repro.testing import assert_equivalent_verdicts
from tests.compile.test_artifact import seal, split


def entry(task, minute=0, role="Staff", status=Status.SUCCESS, case="C-1"):
    return LogEntry(
        user="Sam",
        role=role,
        action="work",
        obj=None,
        task=task,
        case=case,
        timestamp=datetime(2010, 1, 1, 9, 0) + timedelta(minutes=minute),
        status=status,
    )


def fresh_checker(n_tasks=2, **kwargs):
    return ComplianceChecker(encode(sequential_process(n_tasks)), **kwargs)


def attach_fresh_automaton(checker, **kwargs):
    automaton = PurposeAutomaton(
        fingerprint=fingerprint_encoded(checker.encoded),
        purpose=checker.purpose,
        roles=checker.encoded.roles,
        **kwargs,
    )
    checker.attach_automaton(automaton)
    return automaton


class TestEntryKeyer:
    def test_failed_entries_share_the_error_key(self):
        keyer = EntryKeyer(["Staff"], None)
        assert keyer.key(entry("T1", status=Status.FAILURE)) == ERR_KEY
        assert keyer.key(entry("T2", status=Status.FAILURE)) == ERR_KEY

    def test_key_separates_tasks(self):
        keyer = EntryKeyer(["Staff"], None)
        assert keyer.key(entry("T1")) != keyer.key(entry("T2"))

    def test_specialized_role_keys_like_its_pool_role(self):
        """A Senior (specializing Staff) drives the same alphabet symbol
        as a Staff entry — absorption and matching are identical."""
        hierarchy = RoleHierarchy()
        hierarchy.add_role("Senior", "Staff")
        keyer = EntryKeyer(["Staff"], hierarchy)
        assert keyer.matched_roles("Senior") == frozenset({"Staff"})
        assert keyer.key(entry("T1", role="Senior")) == keyer.key(
            entry("T1", role="Staff")
        )

    def test_unknown_role_keys_differently(self):
        keyer = EntryKeyer(["Staff"], None)
        assert keyer.matched_roles("Visitor") == frozenset()
        assert keyer.key(entry("T1", role="Visitor")) != keyer.key(
            entry("T1", role="Staff")
        )


class TestLazyConstruction:
    def test_bind_interns_the_initial_state(self):
        checker = fresh_checker()
        automaton = attach_fresh_automaton(checker)
        assert automaton.n_states == 1
        assert automaton.initial() == 0

    def test_states_materialize_on_demand_and_are_reused(self):
        registry = MetricsRegistry()
        tel = Telemetry.create(registry=registry)
        checker = fresh_checker(telemetry=tel)
        automaton = attach_fresh_automaton(checker, telemetry=tel)
        trail = [entry("T1", 0), entry("T2", 1)]

        assert checker.check(trail).compliant
        first_pass_states = automaton.n_states
        assert first_pass_states > 1
        misses = registry.counter("automaton_misses_total").value()
        assert misses >= 2.0

        assert checker.check(trail).compliant  # warm replay
        assert automaton.n_states == first_pass_states
        assert registry.counter("automaton_misses_total").value() == misses
        assert registry.counter("automaton_table_hits_total").value() == 2.0

    def test_rejection_is_a_sink_not_a_state(self):
        checker = fresh_checker()
        automaton = attach_fresh_automaton(checker)
        transition = automaton.extend(
            automaton.initial(), automaton.keyer.key(entry("T2"))
        )
        assert transition.target == REJECTED_STATE
        result = checker.check([entry("T2", 0)])
        assert not result.compliant
        assert result.failed_index == 0

    def test_compiled_verdicts_match_interpreted(self):
        compiled = fresh_checker()
        attach_fresh_automaton(compiled)
        interpreted = fresh_checker()
        for trail in (
            [entry("T1", 0), entry("T2", 1)],
            [entry("T1", 0)],
            [entry("T2", 0)],
            [entry("T1", 0), entry("T1", 1)],
            [entry("T1", 0, status=Status.FAILURE)],
        ):
            assert_equivalent_verdicts(
                interpreted.check(trail), compiled.check(trail)
            )

    def test_classification(self):
        checker = fresh_checker()
        automaton = attach_fresh_automaton(checker)
        session = checker.session()
        session.feed(entry("T1", 0))
        assert session.may_continue
        session.feed(entry("T2", 1))
        assert not session.may_continue
        result = session.result()
        assert result.compliant and not result.may_continue


class TestGuards:
    def test_max_states_raises_explosion(self):
        checker = fresh_checker()
        automaton = attach_fresh_automaton(checker, max_states=1)
        with pytest.raises(AutomatonExplosionError):
            automaton.extend(
                automaton.initial(), automaton.keyer.key(entry("T1"))
            )

    def test_explosion_falls_back_to_interpreted(self):
        """A too-small automaton must degrade, not fail: the session
        transparently re-replays through the interpreted engine."""
        checker = fresh_checker()
        attach_fresh_automaton(checker, max_states=1)
        plain = fresh_checker()
        trail = [entry("T1", 0), entry("T2", 1)]
        assert_equivalent_verdicts(plain.check(trail), checker.check(trail))

    def test_dedupe_ablation_is_incompatible(self):
        checker = fresh_checker(dedupe_frontier=False)
        with pytest.raises(ValueError, match="dedupe_frontier"):
            attach_fresh_automaton(checker)


class TestEagerCompile:
    def test_exhaustive_compile_covers_the_alphabet(self):
        """After compile_automaton, replays of in-alphabet trails are
        pure cell reads — the miss counter stays frozen."""
        registry = MetricsRegistry()
        tel = Telemetry.create(registry=registry)
        checker = fresh_checker(telemetry=tel)
        automaton = compile_automaton(checker, telemetry=tel)
        assert automaton.n_states >= 3
        assert automaton.transition_count > 0
        misses = registry.counter("automaton_misses_total").value()
        assert checker.check([entry("T1", 0), entry("T2", 1)]).compliant
        assert not checker.check([entry("T2", 0)]).compliant
        assert not checker.check(
            [entry("T1", 0, status=Status.FAILURE)]
        ).compliant
        assert registry.counter("automaton_misses_total").value() == misses

    def test_partial_compile_on_tiny_budget_still_replays(self):
        checker = fresh_checker()
        automaton = compile_automaton(checker, max_states=2)
        assert automaton.n_states <= 2
        plain = fresh_checker()
        trail = [entry("T1", 0), entry("T2", 1)]
        assert_equivalent_verdicts(plain.check(trail), checker.check(trail))


class TestDocumentRoundTrip:
    def test_round_trip_preserves_structure(self):
        checker = fresh_checker()
        automaton = compile_automaton(checker)
        clone = decode_table(encode_table(automaton))
        assert not clone.bound
        assert clone.fingerprint == automaton.fingerprint
        assert clone.purpose == automaton.purpose
        assert clone.n_states == automaton.n_states
        assert clone.transition_count == automaton.transition_count

    def test_materialize_rebuilds_configurations_from_witness_paths(self):
        checker = fresh_checker()
        automaton = compile_automaton(checker)
        clone = decode_table(encode_table(automaton))
        host = fresh_checker()
        clone.bind(host.engine, host.initial_configuration)
        target = clone.extend(
            clone.initial(), clone.keyer.key(entry("T1"))
        ).target
        configs = clone.materialize(target)
        assert configs
        assert clone.state_active_sets(target) == frozenset(
            conf.active for conf in configs
        )

    def test_binding_a_foreign_process_is_rejected(self):
        checker = fresh_checker()
        automaton = compile_automaton(checker)
        clone = decode_table(encode_table(automaton))
        other = fresh_checker(n_tasks=3)
        with pytest.raises(ArtifactError):
            clone.bind(other.engine, other.initial_configuration)

    def test_malformed_document_raises_artifact_error(self):
        automaton = compile_automaton(fresh_checker())
        raw, cells = split(encode_table(automaton))
        header = json.loads(raw)
        for broken in (
            {"format": header["format"], "eof": True},  # no table at all
            dict(header, states=[]),  # no initial state
            dict(header, symbols=header["symbols"][:-1]),  # short rows
        ):
            body = json.dumps(broken, sort_keys=True).encode()
            body += b" " * ((-len(body)) % 4)
            with pytest.raises(ArtifactError) as excinfo:
                decode_table(seal(body, cells))
            assert excinfo.value.reason == "malformed"
