"""The documentation suite exists and every intra-repo reference resolves.

Runs the same checker the CI docs job uses (``scripts/check_doc_links.py``)
and exercises its failure modes on synthetic documents.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
CHECKER = REPO_ROOT / "scripts" / "check_doc_links.py"

spec = importlib.util.spec_from_file_location("check_doc_links", CHECKER)
check_doc_links = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_doc_links)


def test_documentation_suite_exists():
    for doc in ("README.md", "docs/workflow.md", "docs/architecture.md",
                "docs/cli.md"):
        assert (REPO_ROOT / doc).exists(), doc


def test_checker_passes_on_repo_docs():
    result = subprocess.run(
        [sys.executable, str(CHECKER)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_checker_flags_dead_references(tmp_path):
    doc = tmp_path / "bad.md"
    doc.write_text(
        "A [dead link](missing.md), a dead path `src/repro/nope.py`,\n"
        "a dead module `repro.no_such_module`, and a dead attribute\n"
        "`repro.util.rng.rng_for_everything`.\n"
    )
    errors = check_doc_links.check_document(doc)
    assert len(errors) == 4


def test_checker_accepts_valid_references(tmp_path):
    doc = tmp_path / "good.md"
    doc.write_text(
        "Module `repro.campaign.engine`, attribute chain\n"
        "`repro.execution.simulator.ExecutionSimulator.run`, path\n"
        "`src/repro/util/rng.py`, glob `benchmarks/bench_*.py`,\n"
        "and external [link](https://example.com).\n"
    )
    assert check_doc_links.check_document(doc) == []


def test_checker_flags_dead_source_cross_references(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        '"""See :func:`~repro.util.rng.rng_for_everything`, the module\n'
        ':mod:`repro.no_such_module` and\n'
        ':meth:`repro.execution.simulator.ExecutionSimulator.walk`."""\n'
    )
    errors = check_doc_links.check_source(source)
    assert len(errors) == 3
    assert errors[0].startswith(
        f"{source}:1: dead cross-reference repro.util.rng.rng_for_everything"
    )
    assert errors[2].startswith(f"{source}:3: dead cross-reference")


def test_checker_accepts_valid_source_cross_references(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        '"""Roles on :mod:`repro.execution.fleet_replay`,\n'
        ':class:`~repro.hardware.node.ComputeNode`, the method\n'
        ':meth:`repro.hardware.node.ComputeNode.advance_many`, a dataclass\n'
        'field without a default\n'
        ':attr:`~repro.modeling.dataset.EnergyDataset.counter_rates`, and\n'
        'relative names such as :func:`fleet_run`, which are not checked."""\n'
    )
    assert check_doc_links.check_source(source) == []
