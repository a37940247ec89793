"""Tests for shipping compiled automata to parallel workers.

The satellite guarantee under test: with compiled replay enabled, the
BPMN of each purpose is encoded **at most once per audit** — in the
parent, during pre-compilation.  Workers warmed from the shipped
automaton artifact never re-encode; the interpreted backend is built
lazily only when a case needs a transition the artifact does not cover.
"""

import importlib

import pytest

import repro.policy.registry as registry_module

# ``from repro.bpmn.encode import encode`` in the package __init__ shadows
# the submodule attribute, so resolve the module itself explicitly.
encode_module = importlib.import_module("repro.bpmn.encode")
from repro.core.parallel import (
    _WorkerState,
    _audit_case_guarded,
    _compile_for_workers,
    audit_cases_parallel,
)
from repro.obs import NULL_TELEMETRY
from repro.policy.registry import ProcessRegistry
from repro.scenarios import (
    paper_audit_trail,
    process_registry,
    role_hierarchy,
)


@pytest.fixture
def encode_counter(monkeypatch):
    """Count every BPMN encoding, wherever it is invoked from.

    ``repro.policy.registry`` binds ``encode`` at import time, so both
    the module attribute and the registry's reference must be patched.
    """
    calls = []
    real_encode = encode_module.encode

    def counting_encode(process, *args, **kwargs):
        calls.append(process.purpose)
        return real_encode(process, *args, **kwargs)

    monkeypatch.setattr(encode_module, "encode", counting_encode)
    monkeypatch.setattr(registry_module, "encode", counting_encode)
    return calls


def worker_state_for(registry, automaton_artifacts, hierarchy=None):
    from repro.bpmn.serialize import process_to_dict

    documents = {
        purpose: process_to_dict(registry.process_for(purpose))
        for purpose in registry.purposes()
    }
    prefixes = {
        prefix: purpose
        for purpose in registry.purposes()
        for prefix in [registry.case_prefix_of(purpose)]
        if prefix is not None
    }
    return _WorkerState(
        documents,
        prefixes,
        hierarchy.to_parent_map() if hierarchy is not None else None,
        50_000,
        False,
        None,
        None,
        automaton_artifacts,
    )


class TestEncodeAtMostOncePerAudit:
    def test_precompile_encodes_each_purpose_once(self, encode_counter):
        registry = process_registry()
        hierarchy = role_hierarchy()
        shipped = _compile_for_workers(
            registry, hierarchy, 50_000, None, 50_000, NULL_TELEMETRY
        )
        assert set(shipped) == set(registry.purposes())
        assert sorted(encode_counter) == sorted(registry.purposes())

    def test_warmed_workers_never_reencode(self, encode_counter):
        """Replaying the paper's full trail through a worker warmed from
        the shipped artifacts adds zero encode calls."""
        registry = process_registry()
        hierarchy = role_hierarchy()
        trail = paper_audit_trail()
        shipped = _compile_for_workers(
            registry, hierarchy, 50_000, None, 50_000, NULL_TELEMETRY
        )
        encodes_after_precompile = len(encode_counter)
        assert encodes_after_precompile == len(registry.purposes())

        state = worker_state_for(registry, shipped, hierarchy)
        results = {
            case: _audit_case_guarded(
                state, case, trail.for_case(case).entries
            )
            for case in trail.cases()
        }
        assert all(r["error"] is None for r in results.values())
        assert len(encode_counter) == encodes_after_precompile

    def test_unwarmed_worker_encodes_on_demand(self, encode_counter):
        """Without shipped automata a worker builds the interpreted
        checker — exactly one encode per purpose it actually touches."""
        registry = process_registry()
        trail = paper_audit_trail()
        state = worker_state_for(registry, None, role_hierarchy())
        for case in trail.cases():
            _audit_case_guarded(state, case, trail.for_case(case).entries)
        assert sorted(set(encode_counter)) == sorted(registry.purposes())
        assert len(encode_counter) == len(set(encode_counter))


class TestParallelCompiledVerdicts:
    def test_pool_with_compiled_matches_plain(self):
        registry = process_registry()
        hierarchy = role_hierarchy()
        trail = paper_audit_trail()
        plain = audit_cases_parallel(
            registry, trail, workers=2, hierarchy=hierarchy
        )
        compiled = audit_cases_parallel(
            registry, trail, workers=2, hierarchy=hierarchy, compiled=True
        )
        assert {c: o.verdict for c, o in plain.items()} == {
            c: o.verdict for c, o in compiled.items()
        }
        assert {c: o.failed_index for c, o in plain.items()} == {
            c: o.failed_index for c, o in compiled.items()
        }

    def test_artifact_dir_round_trip(self, tmp_path):
        """Second parallel run loads the artifacts the first one wrote."""
        registry = process_registry()
        hierarchy = role_hierarchy()
        trail = paper_audit_trail()
        first = audit_cases_parallel(
            registry,
            trail,
            workers=2,
            hierarchy=hierarchy,
            automaton_dir=str(tmp_path),
        )
        artifacts = sorted(tmp_path.glob("*.table.bin"))
        assert len(artifacts) == len(registry.purposes())
        second = audit_cases_parallel(
            registry,
            trail,
            workers=2,
            hierarchy=hierarchy,
            automaton_dir=str(tmp_path),
        )
        assert {c: o.verdict for c, o in first.items()} == {
            c: o.verdict for c, o in second.items()
        }

    def test_poisoned_purpose_does_not_break_precompile(self, encode_counter):
        """A purpose whose compilation fails keeps its lazy containment;
        the others still ship automata."""
        registry = process_registry()

        class ExplodingRegistry(ProcessRegistry):
            def encoded_for(self, purpose):
                if purpose == "treatment":
                    raise RuntimeError("boom")
                return super().encoded_for(purpose)

        exploding = ExplodingRegistry()
        for purpose in registry.purposes():
            exploding.register(
                registry.process_for(purpose),
                registry.case_prefix_of(purpose),
            )
        shipped = _compile_for_workers(
            exploding, None, 50_000, None, 50_000, NULL_TELEMETRY
        )
        assert "treatment" not in shipped
        assert set(shipped) == set(registry.purposes()) - {"treatment"}
