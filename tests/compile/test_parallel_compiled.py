"""Tests for table replay under ``PurposeControlAuditor(workers=N)``.

The guarantee under test: the BPMN of each purpose is encoded **at most
once per audit** — in the parent, while it precompiles every purpose
into the artifact directory.  Forked workers inherit the registry's
encodings and warm their checkers from the artifacts, so they never
re-encode.
"""

import importlib
import os

import pytest

import repro.policy.registry as registry_module
from repro.compile import AutomatonCache, precompile
from repro.core import PurposeControlAuditor
from repro.errors import NotWellFoundedError
from repro.policy.registry import ProcessRegistry
from repro.scenarios import (
    paper_audit_trail,
    process_registry,
    role_hierarchy,
)
from repro.testing import canonical_digest
from tests.core.test_resilience import non_well_founded_process
from tests.oracle import interpreted_digests

# ``from repro.bpmn.encode import encode`` in the package __init__ shadows
# the submodule attribute, so resolve the module itself explicitly.
encode_module = importlib.import_module("repro.bpmn.encode")


@pytest.fixture
def encode_log(monkeypatch, tmp_path):
    """Record every BPMN encoding as ``(pid, purpose)``, in any process.

    ``repro.policy.registry`` binds ``encode`` at import time, so both
    the module attribute and the registry's reference are patched;
    forked pool workers inherit the patch and append to the same file.
    """
    log = tmp_path / "encodes.log"
    real_encode = encode_module.encode

    def counting_encode(process, *args, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {process.purpose}\n")
        return real_encode(process, *args, **kwargs)

    monkeypatch.setattr(encode_module, "encode", counting_encode)
    monkeypatch.setattr(registry_module, "encode", counting_encode)

    def read() -> list[tuple[int, str]]:
        if not log.exists():
            return []
        return [
            (int(pid), purpose)
            for pid, purpose in (line.split() for line in log.read_text().splitlines())
        ]

    return read


def digests(report):
    return {
        case: canonical_digest(result.replay)
        for case, result in report.cases.items()
        if result.replay is not None
    }


class TestEncodeAtMostOncePerAudit:
    def test_precompile_encodes_each_purpose_once(self, encode_log, tmp_path):
        registry = process_registry()
        outcomes = precompile(
            registry,
            AutomatonCache(tmp_path / "automata"),
            hierarchy=role_hierarchy(),
        )
        assert sorted(outcomes) == sorted(registry.purposes())
        assert all(isinstance(o, tuple) for o in outcomes.values())
        assert sorted(p for _, p in encode_log()) == sorted(registry.purposes())

    def test_warmed_workers_never_reencode(self, encode_log):
        """A pool audit of the paper's full trail encodes each purpose
        exactly once, in the parent."""
        registry = process_registry()
        report = PurposeControlAuditor(
            registry, hierarchy=role_hierarchy(), workers=2
        ).audit(paper_audit_trail())
        assert all(r.error is None for r in report.cases.values())
        encodes = encode_log()
        assert sorted(p for _, p in encodes) == sorted(registry.purposes())
        assert {pid for pid, _ in encodes} == {os.getpid()}


class TestParallelCompiledVerdicts:
    def test_pool_with_compiled_matches_plain(self):
        """``compiled=True`` is accepted and ignored (perfbench passes
        it); the pool's digests are interpreted replay's."""
        registry = process_registry()
        hierarchy = role_hierarchy()
        trail = paper_audit_trail()
        plain = PurposeControlAuditor(
            registry, hierarchy=hierarchy, workers=2
        ).audit(trail)
        compiled = PurposeControlAuditor(
            registry, hierarchy=hierarchy, compiled=True, workers=2
        ).audit(trail)
        assert plain.summary() == compiled.summary()
        assert digests(plain) == digests(compiled) == interpreted_digests(
            registry, trail, hierarchy
        )

    def test_artifact_dir_round_trip(self, tmp_path):
        """The second pool audit loads the artifacts the first one wrote."""
        registry = process_registry()
        trail = paper_audit_trail()

        def run():
            return PurposeControlAuditor(
                registry,
                hierarchy=role_hierarchy(),
                automaton_dir=str(tmp_path),
                workers=2,
            ).audit(trail)

        first = run()
        artifacts = sorted(tmp_path.glob("*.table.bin"))
        assert len(artifacts) == len(registry.purposes())
        written = {path: path.stat().st_mtime_ns for path in artifacts}
        second = run()
        assert {
            path: path.stat().st_mtime_ns for path in artifacts
        } == written
        assert digests(first) == digests(second)

    def test_poisoned_purpose_does_not_break_precompile(self, tmp_path):
        """A purpose whose compile fails is returned in its place; the
        others still get their artifacts."""
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
        exploding.register(non_well_founded_process(), "NW")
        outcomes = precompile(exploding, AutomatonCache(tmp_path))
        assert isinstance(outcomes["treatment"], RuntimeError)
        assert isinstance(outcomes["sick"], NotWellFoundedError)
        assert isinstance(outcomes["clinicaltrial"], tuple)
        assert [p.name.split("-")[0] for p in tmp_path.glob("*.table.bin")] == [
            "clinicaltrial"
        ]
