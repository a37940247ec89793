"""What a plain install must carry, and what the hot paths must not load.

``networkx`` is a declared dependency, but only cycle enumeration
(``repro lint``, ``repro validate`` on a non-well-founded process) and
the BPMN metrics import it.  Serving, auditing and compiling never do,
so a daemon neither pays its import time nor its memory.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_HOT_PATHS = r"""
import sys
import tempfile

import repro.cli
from repro.compile import AutomatonCache, compile_automaton
from repro.core import ComplianceChecker
from repro.core.auditor import PurposeControlAuditor
from repro.scenarios import paper_audit_trail, process_registry, role_hierarchy
from repro.serve import ServeConfig, ShardRouter

registry, hierarchy = process_registry(), role_hierarchy()
with tempfile.TemporaryDirectory() as directory:
    cache = AutomatonCache(directory)
    for purpose in sorted(registry.purposes()):
        checker = ComplianceChecker(
            registry.encoded_for(purpose), hierarchy=hierarchy
        )
        cache.save(compile_automaton(checker))
    report = PurposeControlAuditor(
        registry, hierarchy=hierarchy, automaton_dir=directory
    ).audit(paper_audit_trail())
    assert len(report.infringing_cases) == 5, report.infringing_cases
    router = ShardRouter(
        registry,
        hierarchy=hierarchy,
        config=ServeConfig(automaton_dir=directory),
    )
    router.start()
    for entry in paper_audit_trail():
        assert router.submit(entry).accepted
    router.drain()
    assert len(router.results()) == 8
print("networkx" in sys.modules)
"""


def test_serve_audit_and_compile_never_import_networkx():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", _HOT_PATHS],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


def test_serving_leaves_the_testing_package_out():
    """A verdict record's digest comes from ``repro.core``: a daemon
    that answers ``results`` never imports ``repro.testing``."""
    script = (
        "import sys\n"
        "from repro.scenarios import paper_audit_trail, process_registry\n"
        "from repro.serve import ShardRouter\n"
        "router = ShardRouter(process_registry())\n"
        "router.start()\n"
        "for entry in paper_audit_trail():\n"
        "    router.submit(entry)\n"
        "assert all(r['digest'] for r in router.results().values())\n"
        "router.drain()\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.testing')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


def test_cli_import_leaves_the_process_pool_out():
    """``repro audit --workers N`` imports its pool on first use only."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli; print('concurrent.futures' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


def test_networkx_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert any(
        requirement.replace(" ", "").startswith("networkx>=3")
        for requirement in project["dependencies"]
    )
