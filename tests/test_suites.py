import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from liechain import suites
from liechain.cli import main
from liechain.formulas import (
    Check,
    chain_difference,
    check_dimlen,
    check_lcd,
    check_sqrt_lower_bound,
    is_length_eq_depth,
    length,
)
from liechain.groups import GroupType, SimpleType, iter_groups, iter_semisimple
from liechain.suites import (
    DEFAULT_MAX_DIM,
    SUITES,
    computed_cd_is_one,
    computed_length_eq_depth,
    is_published_cd_one,
    run_suites,
)


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


# -- the per-part sweep against group-by-group loops ------------------------------

def _reference_sweep(claim, max_dim, checker):
    groups = list(iter_groups(max_dim))
    failures = [f"{g}: {c.claim}" for g in groups for c in checker(g) if not c.passed]
    return Check(claim, {"max_dim": max_dim, "groups_scanned": len(groups),
                         "failures": failures[:8]},
                 f"failures = {len(failures)}", "expected 0", not failures)


def _reference_classification(name, max_dim, predicate, computed):
    scanned = 0
    mismatches, unresolved = [], []
    for g in iter_groups(max_dim):
        scanned += 1
        want = predicate(g)
        got = computed(g)
        if got is None:
            unresolved.append(str(g))
        elif got != want:
            mismatches.append(f"{g} (computed={got}, characterized={want})")
    return Check(name, {"max_dim": max_dim, "groups_scanned": scanned,
                        "mismatches": mismatches[:8], "unresolved": unresolved[:8]},
                 f"mismatches = {len(mismatches)}", "expected 0",
                 not mismatches and not unresolved)


def _reference_general(max_dim):
    worst = None
    scanned = 0
    for g in iter_groups(max_dim):
        scanned += 1
        z = g.torus_rank
        r = g.rank - z
        t = sum(k for _, k in g.counts)
        total = length(g)
        if not (z + 2 * r <= total <= z + 3 * r - t if t else total == z):
            worst = str(g)
            break
    return Check("length within the rank bounds z+2r <= l <= z+3r-t",
                 {"max_dim": max_dim, "groups_scanned": scanned, "first_failure": worst},
                 "all groups in range", "bounds hold", worst is None)


def _reference_superadditivity(max_dim):
    bad = []
    for g in iter_groups(min(max_dim, 40)):
        if len(g.counts) < 2:
            continue
        block_sum = sum(chain_difference(GroupType(0, ((s, k),))).exact_value
                        for s, k in g.counts)
        if chain_difference(g).lower < block_sum:
            bad.append(str(g))
    return Check("chain difference at least the sum over homogeneous blocks",
                 {"mismatches": bad[:8]}, f"mismatches = {len(bad)}", "expected 0", not bad)


def _json(checks):
    return json.dumps([c.to_json() for c in checks])


@pytest.mark.parametrize("max_dim", [12, 30])
def test_per_part_sweep_matches_group_by_group_loops(max_dim):
    got = {name: SUITES[name](max_dim) for name in ("general", "dimlen", "sqrt", "ld", "cd", "lcd")}
    want = {
        "general": [_reference_general(max_dim)],
        "dimlen": [_reference_sweep("dimension deficit bounds over the enumeration",
                                    max_dim, check_dimlen)],
        "sqrt": [_reference_sweep("square-root dimension lower bound over the enumeration",
                                  max_dim, check_sqrt_lower_bound)],
        "ld": [_reference_classification("length equals depth exactly for tori and SU(2) x torus",
                                         max_dim, is_length_eq_depth, computed_length_eq_depth)],
        "cd": [_reference_classification("chain difference one matches the published list",
                                         max_dim, is_published_cd_one, computed_cd_is_one)],
        "lcd": [_reference_sweep("chain-difference length bounds over the enumeration",
                                 max_dim, check_lcd),
                _reference_superadditivity(max_dim)],
    }
    # the sweep checks only; sqrt and lcd add fixed checks after theirs
    got["sqrt"] = got["sqrt"][:1]
    got["lcd"] = [got["lcd"][0], got["lcd"][2]]
    for name in want:
        assert _json(got[name]) == _json(want[name]), name
    # SU(2) x SU(3) x T^z fails the published cd list from dim 11 on
    assert not got["cd"][0].passed


def test_sweep_calls_a_checker_at_most_twice_per_part(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return check_dimlen(g)

    monkeypatch.setattr(suites, "check_dimlen", counted)
    (check,) = suites.suite_dimlen(30)
    parts = list(iter_semisimple(30))
    assert check.passed and check.inputs["groups_scanned"] == sum(len(zs) for _, zs in parts)
    assert len(calls) <= 2 * len(parts)
    assert {g.torus_rank for g in calls} == {0, 1}


def test_failing_representative_falls_back_to_every_torus_rank(monkeypatch):
    su3 = ((SimpleType("SU", 3), 1),)
    calls = []

    def fails_off_the_semisimple_part(g):
        calls.append(g)
        return [Check("fake", {}, "", "", not (g.counts == su3 and g.torus_rank))]

    monkeypatch.setattr(suites, "check_dimlen", fails_off_the_semisimple_part)
    (check,) = suites.suite_dimlen(12)
    # SU(3) has dim 8: the representatives z = 0, 1, then every z in 0..4
    assert check.inputs["failures"] == [f"{GroupType(z, su3)}: fake" for z in range(1, 5)]
    assert [g.torus_rank for g in calls if g.counts == su3] == [0, 1, 0, 1, 2, 3, 4]
