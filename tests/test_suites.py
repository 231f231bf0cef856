import hashlib
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from liechain import formulas, suites
from liechain.chains import min_chain
from liechain.cli import main
from liechain.formulas import (
    Check,
    chain_difference,
    check_dimlen,
    check_lcd,
    check_sqrt_lower_bound,
    depth,
    is_length_eq_depth,
    lcd_verdicts,
    length,
)
from liechain.groups import GroupType, SimpleType, iter_groups, iter_semisimple, iter_simple_types
from liechain.oracle import oracle_depth
from liechain.radicals import BETA, QuadExpr
from liechain.subgroups import is_curated
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


def test_passing_sweep_builds_no_check(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return check_dimlen(g)

    monkeypatch.setattr(suites, "check_dimlen", counted)
    (check,) = suites.suite_dimlen(30)
    parts = list(iter_semisimple(30))
    assert check.passed and check.inputs["groups_scanned"] == sum(len(zs) for _, zs in parts)
    assert calls == []


def test_failing_representative_falls_back_to_every_torus_rank(monkeypatch):
    su3 = ((SimpleType("SU", 3), 1),)
    decided, rendered = [], []
    verdicts = suites.dimlen_verdicts

    def fails_off_the_semisimple_part(z, counts, l_ss, dim_ss):
        if counts == su3:
            decided.append(z)
            if z:
                return (False,)
        return verdicts(z, counts, l_ss, dim_ss)

    def fake(g):
        rendered.append(g)
        return [Check("fake", {}, "", "", not (g.counts == su3 and g.torus_rank))]

    monkeypatch.setattr(suites, "dimlen_verdicts", fails_off_the_semisimple_part)
    monkeypatch.setattr(suites, "check_dimlen", fake)
    (check,) = suites.suite_dimlen(12)
    # SU(3) has dim 8: decided at the representatives z = 0, 1, then
    # rendered at every z in 0..4, and no other part is rendered
    assert check.inputs["failures"] == [f"{GroupType(z, su3)}: fake" for z in range(1, 5)]
    assert decided == [0, 1]
    assert [(g.counts, g.torus_rank) for g in rendered] == [(su3, z) for z in range(5)]


def _within_rank_bounds(g):
    z = g.torus_rank
    r = g.rank - z
    t = sum(k for _, k in g.counts)
    total = length(g)
    return z + 2 * r <= total <= z + 3 * r - t if t else total == z


def _superadditive(g):
    if len(g.counts) < 2:
        return True
    block_sum = sum(chain_difference(GroupType(0, ((s, k),))).exact_value
                    for s, k in g.counts)
    return chain_difference(g).lower >= block_sum


def _passes(checker):
    return lambda g: all(c.passed for c in checker(g))


@pytest.mark.parametrize("holds,reference", [
    (suites._rank_bounds_hold, _within_rank_bounds),
    (suites._dimlen_holds, _passes(check_dimlen)),
    (suites._sqrt_holds, _passes(check_sqrt_lower_bound)),
    (suites._ld_holds, lambda g: computed_length_eq_depth(g) == is_length_eq_depth(g)),
    (suites._cd_holds, lambda g: computed_cd_is_one(g) == is_published_cd_one(g)),
    (suites._lcd_holds, _passes(check_lcd)),
    (suites._superadditive_holds, _superadditive),
], ids=["general", "dimlen", "sqrt", "ld", "cd", "lcd", "superadditive"])
def test_part_verdicts_agree_with_the_per_group_checks(holds, reference):
    # the integer decision at every torus rank of every part, not only at
    # the representatives, against the group-level check it stands for
    seen = []
    for p in suites._parts(30):
        for z in p.zs:
            g = p.h.with_torus(z)
            seen.append(g)
            assert holds(p, z) == reference(g), g
    assert seen == list(iter_groups(30))


def test_lcd_passes_at_dim_100():
    # the closed-form upper end alone fails the 2,169 groups H x T^z of these
    # 218 parts, none of them a counterexample; the part records and
    # check_lcd both bound a mixed depth by the merging chain and pass them
    loose = [p for p in suites._parts(100) if len(p.h.counts) > 1 and not is_curated(p.h)
             and not all(lcd_verdicts(0, p.h.counts, p.length, p.dim,
                                      p.length - depth(p.h).upper))]
    assert (len(loose), sum(len(p.zs) for p in loose)) == (218, 2169)
    for p in loose:
        for z in p.zs[:2]:
            g = p.h.with_torus(z)
            assert suites._lcd_holds(p, z) and all(c.passed for c in check_lcd(g)), g
    checks = suites.suite_lcd(100)
    assert checks[0].inputs["groups_scanned"] == 414262
    assert all(c.passed for c in checks), [c.inputs for c in checks if not c.passed]


def test_block_cd_is_the_homogeneous_chain_difference():
    for s in iter_simple_types(max_degree=60):
        for k in range(1, 7):
            assert suites._block_cd(s, k) == chain_difference(GroupType(0, ((s, k),))).exact_value


def _reference_depth_is(g, target):
    # the rule spelled out on its own: the closed-form interval decides,
    # and the oracle settles a curated group only when the interval holds
    # the target
    d = depth(g)
    if d.is_exact:
        return target == d.exact_value
    if target not in d:
        return False
    if is_curated(g):
        return target == oracle_depth(g)
    return None


def test_exact_depth_decisions_match_an_independent_rule():
    # every group of dim <= 30, and the non-curated mixed parts of dim <= 60
    # at z = 0, 1, whose depth only an interval gives (it never holds l or
    # l - 1 there: their chain difference is at least 7)
    groups = list(iter_groups(30)) + [
        p.h.with_torus(z) for p in suites._parts(60)
        if len(p.h.counts) > 1 and not is_curated(p.h) for z in p.zs[:2]]
    bounded = 0
    for g in groups:
        l = length(g)
        assert computed_length_eq_depth(g) == _reference_depth_is(g, l), g
        assert computed_cd_is_one(g) == _reference_depth_is(g, l - 1), g
        only_bounded = len(g.counts) > 1 and not is_curated(g)
        assert (min_chain(g) is None) == only_bounded, g
        bounded += only_bounded
    assert bounded == 112 + 92  # 92 of the 112 parts have room for z = 1


def test_uniform_floor_is_tight_at_so_4m_plus_3():
    # l >= beta sqrt(dim) - 9/8 holds for every classical type of degree
    # <= 300, and SO(4m+3) meets it within 1: l - 1 falls below it there
    for s in iter_simple_types(max_degree=300):
        if not s.is_classical:
            continue
        l = formulas.length_simple(s)
        floor = BETA * QuadExpr.sqrt(s.dim) - Fraction(9, 8)
        assert suites.meets_uniform_floor(l, s.dim), s
        assert QuadExpr.rational(l) >= floor, s
        if s.family == "SO" and s.degree % 4 == 3:
            assert not suites.meets_uniform_floor(l - 1, s.dim), s
            assert not QuadExpr.rational(l - 1) >= floor, s
    so7 = SimpleType("SO", 7)
    assert float(QuadExpr.rational(7) - BETA * QuadExpr.sqrt(so7.dim) + Fraction(9, 8)) < 0.025


def test_passing_radical_sweeps_decide_in_integers(monkeypatch):
    # the tuples of smalll are decided from their sums, never validated one
    # by one; the sqrt and lcd sweeps ask QuadExpr for at most one sign per
    # distinct threshold input, not one per (length, dimension) pair
    sums = []
    validate = formulas._smalll_sums
    monkeypatch.setattr(formulas, "_smalll_sums", lambda ns: sums.append(ns) or validate(ns))
    (check,) = suites.suite_smalll(60)
    assert check.passed and check.inputs["tuples_checked"] == 12145
    assert check.inputs["negatives"] == [[7, 7]] and sums == []

    signs = []
    sign = QuadExpr.sign
    monkeypatch.setattr(QuadExpr, "sign", lambda x: signs.append(x) or sign(x))
    for suite, threshold in ((suites.suite_sqrt, formulas._sqrt_threshold),
                             (suites.suite_lcd, formulas._quad_cd_limit)):
        threshold.cache_clear()
        signs.clear()
        assert all(c.passed for c in suite(60))
        inputs = threshold.cache_info().currsize
        assert 0 < inputs and len(signs) <= inputs, suite
