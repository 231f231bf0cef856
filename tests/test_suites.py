import hashlib
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from liechain import formulas, suites
from liechain.chains import min_chain
from liechain.cli import main
from liechain.formulas import (
    BoundsOrExact,
    chain_difference,
    depth,
    is_length_eq_depth,
    length,
    merging_depth,
)
from liechain.groups import GroupType, SimpleType, iter_groups, iter_semisimple, iter_simple_types
from liechain.oracle import oracle_depth
from liechain.radicals import BETA, QuadExpr
from liechain.subgroups import is_curated
from liechain.suites import (
    DEFAULT_MAX_DIM,
    SUITES,
    Check,
    check_dimlen,
    check_lcd,
    check_sqrt_lower_bound,
    computed_cd_is_one,
    computed_length_eq_depth,
    is_published_cd_one,
    lcd_verdicts,
    run_suites,
)

# the suites that sweep the enumeration of every group of bounded dimension
ENUMERATION_SUITES = ("general", "dimlen", "sqrt", "ld", "cd", "lcd")


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


# sha256 of `liechain --json check-theorems --max-degree 100`: there the
# sweeps decide the 7,580 mixed parts outside the curated set (7,468 of
# them above the default bound) from their records alone; only cd fails
DIM_100_DIGEST = "7b68b753e9c19fa9c2d657ccf03927e4493fa75391fbcc669a7962f48052a353"


def test_check_theorems_at_dim_100_matches_pinned_digest(capsys):
    code = main(["--json", "check-theorems", "--max-degree", "100"])
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DIM_100_DIGEST
    assert code == 1


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
        if chain_difference(g, refine=True).lower < block_sum:
            bad.append(str(g))
    return Check("chain difference at least the sum over homogeneous blocks",
                 {"mismatches": bad[:8]}, f"mismatches = {len(bad)}", "expected 0", not bad)


def _json(checks):
    return json.dumps([c.to_json() for c in checks])


@pytest.mark.parametrize("max_dim", [12, 30])
def test_per_part_sweep_matches_group_by_group_loops(max_dim):
    got = {name: SUITES[name](max_dim) for name in ENUMERATION_SUITES}
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


@pytest.fixture
def fresh_pass():
    # the pass caches its decisions per bound: a test that patches a verdict
    # decides afresh, and leaves no decision of the patched verdict behind
    suites._decided.cache_clear()
    yield
    suites._decided.cache_clear()


def test_enumeration_suites_share_one_walk(monkeypatch, fresh_pass):
    # the six sweeps at one bound read one pass over the fold of the part
    # records; it keeps only the parts a verdict leaves undecided, each with
    # the count of groups before it: SU(2) x SU(3), which the published cd
    # list names
    walks = []
    fold = suites._fold
    monkeypatch.setattr(suites, "_fold", lambda max_dim: walks.append(max_dim) or fold(max_dim))
    run_suites(ENUMERATION_SUITES, 60)
    assert walks == [60]
    su2_su3 = GroupType(0, ((SimpleType("SU", 2), 1), (SimpleType("SU", 3), 1)))
    for max_dim, scanned, before in ((60, 17472, 10104), (100, 414262, 270503)):
        got, undecided = suites._decided(max_dim)
        kept = {name: left for name, left in undecided.items() if left}
        assert got == scanned
        assert kept == {"cd": [(before, su2_su3, range(max_dim - 10))]}, max_dim
    assert walks == [60, 100]


@pytest.mark.parametrize("max_dim", [0, -1])
@pytest.mark.parametrize("name", ENUMERATION_SUITES)
def test_enumeration_suites_refuse_a_bound_below_one(name, max_dim):
    with pytest.raises(ValueError, match=f"max_dim must be at least 1, got {max_dim}"):
        run_suites([name], max_dim)


def test_fixed_range_suites_ignore_a_bound_below_one():
    assert all(check.passed for _, check in run_suites(["smalll", "liedep"], 0))


def test_failing_representative_falls_back_to_every_torus_rank(monkeypatch, fresh_pass):
    su3 = ((SimpleType("SU", 3), 1),)
    decided, rendered = [], []
    verdicts = suites.sqrt_verdicts

    def fails_off_the_semisimple_part(z, counts, l_ss, dim_ss):
        if counts == su3:
            decided.append(z)
            if z:
                return (False,)
        return verdicts(z, counts, l_ss, dim_ss)

    def fake(g):
        rendered.append(g)
        return [Check("fake", {}, "", "", not (g.counts == su3 and g.torus_rank))]

    # sqrt is the one verdict the pass decides at z = 1 as well as at z = 0
    monkeypatch.setattr(suites, "sqrt_verdicts", fails_off_the_semisimple_part)
    monkeypatch.setattr(suites, "check_sqrt_lower_bound", fake)
    check = suites.suite_sqrt(12)[0]
    # SU(3) has dim 8: decided at the representatives z = 0, 1, then
    # rendered at every z in 0..4, and no other part is rendered
    assert check.inputs["failures"] == [f"{GroupType(z, su3)}: fake" for z in range(1, 5)]
    assert decided == [0, 1]
    assert [(g.counts, g.torus_rank) for g in rendered] == [(su3, z) for z in range(5)]


# -- the pass against one verdict per (part, torus rank) --------------------------
# the verdicts read the helpers and predicates through ``suites``, as the pass
# does, so a patch reaches both

class Part(NamedTuple):
    """One semisimple part H of the enumeration, in integers: a row of
    ``suites._fold`` with its depth as an interval."""

    h: GroupType
    zs: range              # the torus ranks z with H x T^z in range
    dim: int               # D = dim H
    length: int            # L = l(H)
    depth: BoundsOrExact   # depth(H), up to merging_depth(H) when mixed
    rank: int              # rank H
    factors: int           # n, the simple factors of H counted with multiplicity


def _parts(max_dim):
    for h, zs, dim, l, lower, upper, rank, n in suites._fold(max_dim):
        yield Part(h, zs, dim, l, BoundsOrExact(lower, upper), rank, n)


def _rank_bounds_hold(p, z):
    t, r = p.factors, p.rank
    return 2 * r <= p.length <= 3 * r - t if t else p.length == 0


def _dimlen_holds(p, z):
    return all(suites.dimlen_verdicts(z, p.h.counts, p.length, p.dim))


def _sqrt_holds(p, z):
    return all(suites.sqrt_verdicts(z, p.h.counts, p.length, p.dim))


def _lcd_holds(p, z):
    return all(suites.lcd_verdicts(z, p.h.counts, p.length, p.dim, p.length - p.depth.upper))


def _ld_holds(p, z):
    return suites._depth_is(p.depth, p.length) == suites.is_length_eq_depth(p.h)


def _cd_holds(p, z):
    return suites._depth_is(p.depth, p.length - 1) == suites.is_published_cd_one(p.h)


def _superadditive_holds(p, z):
    return suites._superadditive(p.h)


# the verdict of each enumeration sweep, by the name the pass files it under
_VERDICTS = (("general", _rank_bounds_hold), ("dimlen", _dimlen_holds),
             ("sqrt", _sqrt_holds), ("ld", _ld_holds), ("cd", _cd_holds),
             ("lcd", _lcd_holds))


def _reference_decided(max_dim):
    # each verdict decided on its own at each representative of each part:
    # z = 0 and 1, or the first torus rank
    undecided = {name: [] for name, _ in _VERDICTS}
    scanned = 0
    for p in _parts(max_dim):
        zs = p.zs
        representatives = zs[:2] if zs[0] == 0 else zs[:1]
        for name, holds in _VERDICTS:
            for z in representatives:
                if not holds(p, z):
                    undecided[name].append((scanned, p.h, zs))
                    break
        scanned += len(zs)
    return scanned, undecided


@pytest.mark.parametrize("max_dim", [12, 40, 60, 100])
def test_pass_decides_as_one_verdict_per_representative(max_dim):
    # the count of groups, and per verdict the parts left undecided, with
    # the count of groups before each and its torus ranks
    assert suites._decided(max_dim) == _reference_decided(max_dim)


def test_pass_files_failing_verdicts_as_the_reference_does(monkeypatch, fresh_pass):
    # records, helpers and predicates bent so that every verdict fails on
    # some parts, and the pass still files them as the reference does.  The
    # records (read by both through ``_fold``) push l past the rank bounds
    # and depths up to l - 1 or l, so cd intervals hold 0 or 1; the patches
    # of dimlen and lcd read no z, as their verdicts at z = 1 read none that
    # z = 0 does not, and sqrt's reads z
    fold = suites._fold

    def bent(max_dim):
        for h, zs, dim, l, lower, upper, rank, n in fold(max_dim):
            if dim % 3 == 1:
                l += n
            if lower < l and dim % 4 in (0, 2):
                upper = max(upper, l - 1 + dim % 4 // 2)
            yield h, zs, dim, l, lower, upper, rank, n

    def failing(helper, bad):
        return lambda z, counts, l_ss, dim_ss, *rest: (
            (False,) if bad(z, l_ss, dim_ss, *rest) else helper(z, counts, l_ss, dim_ss, *rest))

    monkeypatch.setattr(suites, "_fold", bent)
    for name, bad in (("dimlen_verdicts", lambda z, l, dim: l % 3 == 0),
                      ("sqrt_verdicts", lambda z, l, dim: (dim + z) % 4 == 1),
                      ("lcd_verdicts", lambda z, l, dim, cd_low: cd_low % 5 == 0)):
        monkeypatch.setattr(suites, name, failing(getattr(suites, name), bad))
    for name in ("is_length_eq_depth", "is_published_cd_one"):
        predicate = getattr(suites, name)
        monkeypatch.setattr(suites, name, lambda g, predicate=predicate:
                            predicate(g) != (g.dim % 2 == 0))
    got = suites._decided(40)
    assert got == _reference_decided(40)
    assert all(got[1].values())


def test_pass_calls_each_verdict_helper_once_per_part(monkeypatch, fresh_pass):
    # dimlen and lcd at the first torus rank only; sqrt there and, when the
    # ranks start at 0 and go on, at 1: the tori are asked at z = 1 only
    calls = {"dimlen_verdicts": [], "sqrt_verdicts": [], "lcd_verdicts": []}
    for name, seen in calls.items():
        helper = getattr(suites, name)
        monkeypatch.setattr(suites, name, lambda z, counts, *rest, helper=helper, seen=seen:
                            seen.append((counts, z)) or helper(z, counts, *rest))
    suites._decided(60)
    parts = list(iter_semisimple(60))
    first = [(h.counts, zs[0]) for h, zs in parts]
    assert calls["dimlen_verdicts"] == calls["lcd_verdicts"] == first
    assert calls["sqrt_verdicts"] == [(h.counts, z) for h, zs in parts
                                      for z in (zs[:2] if zs[0] == 0 else zs[:1])]
    assert calls["sqrt_verdicts"][0] == ((), 1) and len(parts) == 1530


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
    return chain_difference(g, refine=True).lower >= block_sum


def _passes(checker):
    return lambda g: all(c.passed for c in checker(g))


@pytest.mark.parametrize("holds,reference", [
    (_rank_bounds_hold, _within_rank_bounds),
    (_dimlen_holds, _passes(check_dimlen)),
    (_sqrt_holds, _passes(check_sqrt_lower_bound)),
    (_ld_holds, lambda g: computed_length_eq_depth(g) == is_length_eq_depth(g)),
    (_cd_holds, lambda g: computed_cd_is_one(g) == is_published_cd_one(g)),
    (_lcd_holds, _passes(check_lcd)),
    (_superadditive_holds, _superadditive),
], ids=["general", "dimlen", "sqrt", "ld", "cd", "lcd", "superadditive"])
def test_part_verdicts_agree_with_the_per_group_checks(holds, reference):
    # the integer decision at every torus rank of every part, not only at
    # the representatives, against the group-level check it stands for
    seen = []
    for p in _parts(30):
        for z in p.zs:
            g = p.h.with_torus(z)
            seen.append(g)
            assert holds(p, z) == reference(g), g
    assert seen == list(iter_groups(30))


@pytest.mark.parametrize("max_dim", [40, 45, 60, 70, 100])
def test_part_records_are_the_closed_forms(max_dim):
    # each record, folded from its parent's, is what the closed forms give
    # for its part on its own; a mixed depth ends at the merging chain
    parts = list(_parts(max_dim))
    assert [(p.h, p.zs) for p in parts] == list(iter_semisimple(max_dim))
    for p in parts:
        h = p.h
        d = depth(h)
        want = d if d.is_exact else BoundsOrExact(d.lower, merging_depth(h))
        assert (p.dim, p.length, p.rank, p.factors, p.depth) == (
            h.dim, length(h), h.rank, sum(k for _, k in h.counts), want), h


def test_lcd_passes_at_dim_100():
    # the closed-form upper end alone fails the 2,169 groups H x T^z of these
    # 218 parts, none of them a counterexample; the part records and
    # check_lcd both bound a mixed depth by the merging chain and pass them
    loose = [p for p in _parts(100) if len(p.h.counts) > 1 and not is_curated(p.h)
             and not all(lcd_verdicts(0, p.h.counts, p.length, p.dim,
                                      p.length - depth(p.h).upper))]
    assert (len(loose), sum(len(p.zs) for p in loose)) == (218, 2169)
    for p in loose:
        for z in p.zs[:2]:
            g = p.h.with_torus(z)
            assert _lcd_holds(p, z) and all(c.passed for c in check_lcd(g)), g
    checks = suites.suite_lcd(100)
    assert checks[0].inputs["groups_scanned"] == 414262
    assert all(c.passed for c in checks), [c.inputs for c in checks if not c.passed]


def test_superadditivity_lists_each_group_of_a_failing_part(monkeypatch):
    # the refined cd of SU(2) x SU(6) bent one below its block sum, every
    # unrefined cd and every other group left as they are: the check fails
    # on each group of that part of dim <= 40, in the order of iter_groups(40)
    target = GroupType(0, ((SimpleType("SU", 2), 1), (SimpleType("SU", 6), 1)))
    block_sum = sum(suites._block_cd(s, k) for s, k in target.counts)
    real = suites.chain_difference

    def bent(g, refine=False):
        if refine and g.semisimple_part == target:
            return BoundsOrExact.exact(block_sum - 1)
        return real(g, refine)

    monkeypatch.setattr(suites, "chain_difference", bent)
    check = suites.suite_lcd(60)[2]
    want = [str(g) for g in iter_groups(40) if g.semisimple_part == target]
    assert want == ["SU(2) x SU(6)", "SU(2) x SU(6) x T", "SU(2) x SU(6) x T^2"]
    assert check.claim == "chain difference at least the sum over homogeneous blocks"
    assert not check.passed
    assert check.inputs["mismatches"] == want and check.lhs == "mismatches = 3"


def test_general_reports_the_first_part_past_the_rank_bounds(monkeypatch, fresh_pass):
    # two parts' records bent past the upper rank bound: the sweep reports
    # the first group of the first of them in the enumeration, and counts
    # the groups up to and including it
    bent_parts = {GroupType(0, ((SimpleType("SU", 2), 1), (SimpleType("SU", 3), 1))),
                  GroupType(0, ((SimpleType("Sp", 4), 1),))}
    fold = suites._fold

    def bent(max_dim):
        for h, zs, dim, l, lower, upper, rank, n in fold(max_dim):
            if h in bent_parts:
                l = 3 * rank - n + 1
            yield h, zs, dim, l, lower, upper, rank, n

    monkeypatch.setattr(suites, "_fold", bent)
    (check,) = suites.suite_general(60)
    groups = list(iter_groups(60))
    first = min(groups.index(h) for h in bent_parts)
    assert not check.passed
    assert check.inputs == {"max_dim": 60, "groups_scanned": first + 1,
                            "first_failure": str(groups[first])}


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
        p.h.with_torus(z) for p in _parts(60)
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
    validate = suites._smalll_sums
    monkeypatch.setattr(suites, "_smalll_sums", lambda ns: sums.append(ns) or validate(ns))
    (check,) = suites.suite_smalll(60)
    assert check.passed and check.inputs["tuples_checked"] == 12145
    assert check.inputs["negatives"] == [[7, 7]] and sums == []

    signs = []
    sign = QuadExpr.sign
    monkeypatch.setattr(QuadExpr, "sign", lambda x: signs.append(x) or sign(x))
    for suite, threshold in ((suites.suite_sqrt, suites._sqrt_threshold),
                             (suites.suite_lcd, suites._quad_cd_limit)):
        suites._decided.cache_clear()  # the pass keeps decisions, not thresholds
        threshold.cache_clear()
        signs.clear()
        assert all(c.passed for c in suite(60))
        inputs = threshold.cache_info().currsize
        assert 0 < inputs and len(signs) <= inputs, suite
