import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from liechain.cli import main
from liechain.suites import DEFAULT_MAX_DIM, SUITES, run_suites


def test_all_documented_suites_present():
    assert set(SUITES) == {
        "general", "dimlen", "sqrt", "smalll", "liedep", "depbds",
        "ld", "cd", "lcd", "complex", "tables", "lendim",
    }


def test_run_suites_rejects_unknown():
    with pytest.raises(KeyError):
        run_suites(["no-such-suite"])


@pytest.mark.parametrize("name", sorted(set(SUITES) - {"cd"}))
def test_suite_passes_at_reduced_bound(name):
    for _, check in run_suites([name], max_dim=30):
        assert check.passed, (name, check)


def test_cd_suite_boundary():
    # below the first counterexample the published list matches
    (_, check), = run_suites(["cd"], max_dim=8)
    assert check.passed
    # SU(3) x SU(2) (dim 11) computes to chain difference 2, so the list fails
    (_, check), = run_suites(["cd"], max_dim=12)
    assert not check.passed
    assert any("SU(2) x SU(3)" in item for item in check.inputs["mismatches"])


def test_default_bound():
    assert DEFAULT_MAX_DIM == 60


def _suite_digests():
    """The per-suite sha256 digests the benchmark pins, read from its
    workload definitions (which import nothing from liechain)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.SUITE_DIGESTS


@pytest.mark.parametrize("name", sorted(SUITES))
def test_check_theorems_output_matches_pinned_digest(name, capsys):
    # every byte of `liechain --json check-theorems` at the default bound
    code = main(["--json", "check-theorems", "--suite", name])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _suite_digests()[name]
    assert code == (1 if name == "cd" else 0)
