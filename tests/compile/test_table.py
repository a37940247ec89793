"""Tests for the dense transition table and its RPTB artifact.

The table is the automaton's only transition store — two indexings per
warm entry — and it earns that position only because these tests hold
it to the exact behavior of the interpreted engine: every cell serves
the same :class:`Transition` a fresh derivation would, every artifact
round-trips bit-for-bit, and every corruption mode is rejected at load
time with the right reason and degrades to a fresh automaton instead
of failing an audit.
"""

import pytest

from repro.bpmn import encode
from repro.compile import (
    TABLE_FORMAT_VERSION,
    UNKNOWN,
    AutomatonCache,
    CompiledChecker,
    PurposeAutomaton,
    compile_automaton,
    decode_table,
    encode_table,
    load_table,
    save_table,
    table_path,
    warm_checker,
)
from repro.core import ComplianceChecker
from repro.errors import ArtifactError
from repro.obs import MetricsRegistry, Telemetry
from repro.obs.log import (
    ARTIFACT_INVALID,
    AUTOMATON_COMPILED,
    MemoryEventLog,
)
from repro.scenarios import hospital_day, role_hierarchy, sequential_process
from repro.testing import canonical_digest, corrupt_artifact


@pytest.fixture
def automaton():
    checker = ComplianceChecker(encode(sequential_process(3)))
    return compile_automaton(checker)


@pytest.fixture
def saved(automaton, tmp_path):
    path = table_path(tmp_path, automaton.purpose, automaton.fingerprint)
    save_table(automaton, path)
    return path


def telemetry_with_log():
    log = MemoryEventLog()
    registry = MetricsRegistry()
    return Telemetry.create(registry=registry, events=log.events), log, registry


def fresh_twin(automaton):
    """A growing automaton over the same process, engine bound."""
    checker = ComplianceChecker(encode(sequential_process(3)))
    fresh = PurposeAutomaton(
        fingerprint=automaton.fingerprint,
        purpose=automaton.purpose,
        roles=automaton.keyer.roles,
    )
    checker.attach_automaton(fresh)
    return fresh


class TestCompile:
    def test_shape_covers_the_automaton(self, automaton):
        assert automaton.n_symbols == len(automaton.symbols)
        assert len(automaton.cells) == (
            automaton.n_states * automaton.n_symbols
        )
        # Eagerly compiled automata derive every canonical-alphabet
        # cell, so the table is fully covered.
        assert UNKNOWN not in automaton.cells
        assert automaton.transition_count == len(automaton.cells)

    def test_cells_agree_with_the_lazy_tier(self, automaton):
        """Every eagerly derived cell equals what a fresh, growing
        automaton derives on demand for the same witness path."""
        fresh = fresh_twin(automaton)
        for sid in range(automaton.n_states):
            path = automaton._states[sid].path
            cursor = fresh.initial()
            for key in path:
                cursor = fresh.extend(cursor, key).target
            for sym, key in enumerate(automaton.symbols):
                eager = automaton.pool[
                    automaton.cells[sid * automaton.n_symbols + sym]
                ]
                lazy = fresh.extend(cursor, key)
                assert (lazy.outcome, lazy.events, lazy.size) == (
                    eager.outcome, eager.events, eager.size
                ), (sid, key)
                assert (lazy.target < 0) == (eager.target < 0)

    def test_pool_is_deduplicated(self, automaton):
        assert len(automaton.pool) == len(set(automaton.pool))
        assert len(automaton.pool) <= automaton.transition_count

    def test_entry_symbol_interns_each_pair_once(self, automaton):
        task = next(
            key.split("\x1f")[1] for key in automaton.symbols if "\x1f" in key
        )
        role = next(iter(automaton.keyer.roles))
        first = automaton.entry_symbol(task, role)
        assert automaton.entry_symbol(task, role) == first
        assert automaton.symbols[first] == automaton.keyer.task_key(task, role)
        # A pair outside the alphabet appends one UNKNOWN column and is
        # interned like any other.
        columns = automaton.n_symbols
        alien = automaton.entry_symbol("NoSuchTask", role)
        assert alien == columns and automaton.n_symbols == columns + 1
        assert automaton.entry_symbol("NoSuchTask", role) == alien
        assert ("NoSuchTask", role) in automaton._entry_symbols
        assert len(automaton.cells) == automaton.n_states * (columns + 1)
        assert all(
            automaton.cells[sid * automaton.n_symbols + alien] == UNKNOWN
            for sid in range(automaton.n_states)
        )

    def test_compile_emits_telemetry(self):
        telemetry, log, registry = telemetry_with_log()
        checker = ComplianceChecker(encode(sequential_process(3)))
        automaton = compile_automaton(checker, telemetry=telemetry)
        events = log.named(AUTOMATON_COMPILED)
        assert len(events) == 1
        assert events[0]["states"] == automaton.n_states
        assert events[0]["symbols"] == automaton.n_symbols
        assert events[0]["pool"] == len(automaton.pool)
        counter = registry.counter("automaton_states_total")
        assert counter.value() == automaton.n_states


class TestRoundTrip:
    def test_path_is_keyed_by_purpose_and_fingerprint(self, automaton, tmp_path):
        path = table_path(tmp_path, automaton.purpose, automaton.fingerprint)
        assert automaton.fingerprint[:16] in path.name
        assert path.name.endswith(".table.bin")

    def test_load_is_bit_identical(self, automaton, saved):
        loaded = load_table(saved, expected_fingerprint=automaton.fingerprint)
        assert loaded.fingerprint == automaton.fingerprint
        assert loaded.purpose == automaton.purpose
        assert loaded.symbols == automaton.symbols
        assert loaded.pool == automaton.pool
        assert list(loaded.cells) == list(automaton.cells)
        assert loaded.transition_count == automaton.transition_count
        for sid in range(automaton.n_states):
            ours, theirs = automaton._states[sid], loaded._states[sid]
            assert (theirs.key, theirs.size, theirs.may_continue) == (
                ours.key, ours.size, ours.may_continue
            )
            assert (theirs.active, theirs.path) == (ours.active, ours.path)
        assert encode_table(loaded) == saved.read_bytes()

    def test_loaded_table_keys_entries_without_the_automaton(
        self, automaton, saved
    ):
        """The artifact carries roles + hierarchy, so a loaded table can
        intern ``(task, role)`` pairs before any engine is bound."""
        loaded = load_table(saved)
        assert not loaded.bound
        task = next(
            key.split("\x1f")[1] for key in automaton.symbols if "\x1f" in key
        )
        role = next(iter(automaton.keyer.roles))
        assert loaded.entry_symbol(task, role) == automaton.entry_symbol(
            task, role
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError) as excinfo:
            load_table(tmp_path / "nope.table.bin")
        assert excinfo.value.reason == "missing"

    def test_fingerprint_mismatch(self, saved):
        with pytest.raises(ArtifactError) as excinfo:
            load_table(saved, expected_fingerprint="0" * 64)
        assert excinfo.value.reason == "fingerprint"


class TestCorruptionModes:
    """Every way a table artifact can rot must be detected at load time
    with the right reason — and absorbed as a cache miss, never raised
    into an audit."""

    MODES = [
        ("truncate", "truncated"),
        ("garbage", "format"),
        ("empty", "truncated"),
        ("version", "version"),
        ("bitflip", "tamper"),
        ("pool", "tamper"),
        ("fingerprint", "fingerprint"),
    ]

    @pytest.mark.parametrize("mode,reason", MODES)
    def test_load_rejects_with_reason(self, automaton, saved, mode, reason):
        corrupt_artifact(saved, mode)
        with pytest.raises(ArtifactError) as excinfo:
            load_table(saved, expected_fingerprint=automaton.fingerprint)
        assert excinfo.value.reason == reason

    @pytest.mark.parametrize("mode,reason", MODES)
    def test_cache_treats_corruption_as_reported_miss(
        self, automaton, mode, reason, tmp_path
    ):
        telemetry, log, registry = telemetry_with_log()
        cache = AutomatonCache(tmp_path, telemetry=telemetry)
        corrupt_artifact(cache.save(automaton), mode)
        assert cache.load(automaton.purpose, automaton.fingerprint) is None
        events = log.named(ARTIFACT_INVALID)
        assert len(events) == 1
        assert events[0]["reason"] == reason
        counter = registry.counter("automaton_artifacts_invalid_total")
        assert counter.value(reason=reason) == 1

    @pytest.mark.parametrize("mode", [m for m, _ in MODES])
    def test_audit_survives_on_the_lazy_tier(self, mode, tmp_path):
        """warm_checker with a rotten artifact: a fresh growing automaton
        attaches instead and replay stays byte-identical."""
        workload = hospital_day(n_cases=4, violation_rate=0.3, seed=11)
        hierarchy = role_hierarchy()
        cache = AutomatonCache(tmp_path)
        donor = ComplianceChecker(workload.encoded, hierarchy=hierarchy)
        corrupt_artifact(cache.save(compile_automaton(donor)), mode)
        checker = ComplianceChecker(workload.encoded, hierarchy=hierarchy)
        warmed = warm_checker(checker, cache=cache)
        assert warmed.n_states == 1  # fresh: only the initial state
        interpreted = ComplianceChecker(workload.encoded, hierarchy=hierarchy)
        for case in workload.trail.cases():
            case_trail = workload.trail.for_case(case)
            assert canonical_digest(checker.check(case_trail)) == (
                canonical_digest(interpreted.check(case_trail))
            ), case


class TestStateAlignment:
    """Cells index the pool and pool targets index the states: the
    decoder checks both before a single cell is trusted."""

    def test_out_of_range_cell_is_malformed(self, automaton):
        """A cell indexing past the pool is rejected even when the
        checksum was recomputed to match it."""
        automaton.cells[0] = len(automaton.pool)
        with pytest.raises(ArtifactError) as excinfo:
            decode_table(encode_table(automaton))
        assert excinfo.value.reason == "malformed"

    def test_version_constant_guards_the_layout(self):
        assert TABLE_FORMAT_VERSION == 3


class TestGrowth:
    def test_growth_round_trip(self, tmp_path):
        """A disk-loaded partial automaton grows a new state and a new
        column, checkpoints, and reloads to replay byte-identically
        with zero misses."""
        workload = hospital_day(n_cases=8, violation_rate=0.5, seed=21)
        hierarchy = role_hierarchy()

        def factory():
            return ComplianceChecker(workload.encoded, hierarchy=hierarchy)

        cases = sorted(workload.trail.cases())
        trails = {case: list(workload.trail.for_case(case)) for case in cases}
        # Grow a partial automaton on the first case only, persist it.
        seed_checker = factory()
        partial = warm_checker(seed_checker)
        seed_checker.check(trails[cases[0]])
        path = save_table(
            partial, table_path(tmp_path, partial.purpose, partial.fingerprint)
        )
        states, columns = partial.n_states, partial.n_symbols

        # Reload it and extend it with everything else, plus an entry
        # outside the alphabet (a new column).
        from dataclasses import replace

        alien = replace(trails[cases[1]][0], task="NotInAnyProcess")
        trails[cases[1]] = [trails[cases[1]][0], alien]
        grown = load_table(path, expected_fingerprint=partial.fingerprint)
        grown_checker = factory()
        grown_checker.attach_automaton(grown)
        first = {
            case: canonical_digest(grown_checker.check(trail))
            for case, trail in trails.items()
        }
        assert grown.n_states > states and grown.n_symbols > columns
        save_table(grown, path)

        # The reload replays everything from the table alone.
        registry = MetricsRegistry()
        telemetry = Telemetry.create(registry=registry)
        reloaded = load_table(
            path, expected_fingerprint=partial.fingerprint, telemetry=telemetry
        )
        replay = CompiledChecker(reloaded, telemetry=telemetry)
        interpreted = factory()
        stepped = 0  # entries up to and including a case's failure
        for case, trail in trails.items():
            result = replay.check(trail)
            assert canonical_digest(result) == first[case] == (
                canonical_digest(interpreted.check(trail))
            ), case
            stepped += (
                len(trail) if result.compliant else result.failed_index + 1
            )
        assert registry.counter("automaton_misses_total").value() == 0
        assert registry.counter("automaton_table_hits_total").value() == stepped


class TestReplayThroughTheTable:
    def test_table_replay_matches_interpreted(self, tmp_path):
        workload = hospital_day(n_cases=6, violation_rate=0.4, seed=3)
        hierarchy = role_hierarchy()

        def factory():
            return ComplianceChecker(workload.encoded, hierarchy=hierarchy)

        automaton = compile_automaton(factory())
        saved = save_table(
            automaton,
            table_path(tmp_path, automaton.purpose, automaton.fingerprint),
        )
        loaded = load_table(saved, expected_fingerprint=automaton.fingerprint)
        compiled = CompiledChecker(loaded, checker_factory=factory)
        interpreted = factory()
        for case in workload.trail.cases():
            case_trail = workload.trail.for_case(case)
            assert canonical_digest(compiled.check(case_trail)) == (
                canonical_digest(interpreted.check(case_trail))
            ), case
