import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from liechain.cli import main
from liechain.errors import IncompleteDatabaseError
from liechain.formulas import depth, depth_simple, length
from liechain.groups import GroupType, SimpleType, iter_groups, parse_group, torus
from liechain.oracle import Oracle, oracle_depth, oracle_length
from liechain.subgroups import CURATED_SIMPLE, is_curated, maximal_connected
from liechain.suites import cross_validate

SRC = str(Path(__file__).resolve().parents[1] / "src")


def full_type_recursion(g, table):
    """(length, depth) by the recursion memoized by the full type, torus
    included: a reference independent of the oracle's torus shift."""
    if g.is_trivial:
        return (0, 0)
    if g not in table:
        entries, flag = maximal_connected(g)
        assert flag.complete
        values = [full_type_recursion(e.subgroup, table) for e in entries]
        table[g] = (1 + max(l for l, _ in values), 1 + min(d for _, d in values))
    return table[g]


@pytest.mark.parametrize("spec,expected", [
    ("SU(4)", 6), ("G2", 5), ("T^2", 2), ("SO(8)", 9), ("Sp(6)", 8),
])
def test_oracle_length(spec, expected):
    assert oracle_length(parse_group(spec)) == expected


@pytest.mark.parametrize("spec,expected", [
    ("SO(7)", 4), ("SU(2)", 2), ("SO(8)", 4), ("SU(6)", 4), ("Sp(6)", 3),
])
def test_oracle_depth(spec, expected):
    assert oracle_depth(parse_group(spec)) == expected


def test_oracle_refines_mixed_product():
    g = parse_group("SU(4) x Sp(4)")
    assert oracle_depth(g) == 5
    assert oracle_depth(g) in depth(g)


def test_incomplete_database_error_names_node():
    with pytest.raises(IncompleteDatabaseError) as err:
        oracle_length(parse_group("F4"))
    assert str(err.value.group) in ("F4", str(parse_group("F4")))
    # with a torus, the error still names the queried type
    g = parse_group("F4 x T^2")
    with pytest.raises(IncompleteDatabaseError) as err:
        Oracle().compute(g)
    assert err.value.group == g


def test_oracle_additive_on_curated_products():
    pairs = [("SU(3)", "Sp(4)"), ("SO(7)", "SU(2)"), ("G2", "SU(4)"), ("SO(8)", "Sp(6)")]
    for a, b in pairs:
        ga, gb = parse_group(a), parse_group(b)
        assert oracle_length(ga * gb) == oracle_length(ga) + oracle_length(gb)


def test_oracle_depth_torus_shift():
    for spec in ["SU(3)", "SO(7)", "SU(2)^2", "Sp(4) x SU(2)"]:
        g = parse_group(spec)
        for z in (1, 2, 3):
            assert oracle_depth(g.with_torus(z)) == oracle_depth(g) + z


def test_depth_floor():
    # depth 1 only for the circle, 2 only for T^2 and SU(2)
    assert oracle_depth(torus(1)) == 1
    assert oracle_depth(torus(2)) == 2
    assert oracle_depth(parse_group("SU(2)")) == 2
    assert oracle_depth(parse_group("SU(2)^2")) == 3
    for s in CURATED_SIMPLE:
        g = GroupType(0, ((s, 1),))
        if s != SimpleType("SU", 2):
            assert oracle_depth(g) >= 3


def test_formula_depth_brackets_oracle():
    curated = sorted(CURATED_SIMPLE, key=lambda s: s.sort_key)
    for s1, s2 in itertools.combinations(curated, 2):
        g = GroupType(1, ((s1, 1), (s2, 1)))
        assert oracle_depth(g) in depth(g)


def test_memoization_soundness():
    # against the full-type memoized recursion on every draw, and against
    # the unmemoized walk of every chain where that is cheap (dim <= 20)
    rng = random.Random(20250809)
    small = [SimpleType("SU", 2), SimpleType("SU", 3), SimpleType("Sp", 4)]
    fresh = Oracle()
    bare = Oracle(cached=False)
    table = {}
    for _ in range(100):
        factors = tuple(rng.choice(small) for _ in range(rng.randint(0, 3)))
        g = GroupType(rng.randint(0, 3), tuple((s, 1) for s in factors))
        if g.is_trivial:
            continue
        value = fresh.compute(g)
        assert value == full_type_recursion(g, table), g
        if g.dim <= 20:
            assert value == bare.compute(g), g


def test_torus_stripped_memo_matches_full_type_recursion():
    table = {}
    oracle = Oracle()
    groups = [g for g in iter_groups(30) if is_curated(g)]
    assert len(groups) == 720
    for g in groups:
        assert oracle.compute(g) == full_type_recursion(g, table), g
    # one memo entry per semisimple type, none per torus rank
    assert all(h.torus_rank == 0 for h in oracle.table)
    assert len(oracle.table) < len(table)


def test_cli_oracle_large_torus(capsys):
    # the torus rank is added to the value of the semisimple part; no
    # recursion runs through the 20000 torus drops
    assert main(["oracle", "SU(3) x T^20000"]) == 0
    assert capsys.readouterr().out == "length 20004  depth 20003\n"


def _python(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


def test_import_leaves_recursion_limit_alone():
    proc = _python("import sys; before = sys.getrecursionlimit(); import liechain; "
                   "print(before, sys.getrecursionlimit())")
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert before == after


def test_oracle_long_chain_under_default_recursion_limit():
    # l(SU(2)^600) = 1200: the walk keeps its own stack, so the chain's
    # length never meets the interpreter's recursion limit
    proc = _python("import sys; from liechain.cli import main; sys.setrecursionlimit(1000); "
                   "sys.exit(main(['oracle', 'SU(2)^600']))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "length 1200  depth 601\n", "")


def test_cross_validate_curated_scope():
    scope = [GroupType(0, ((s, 1),)) for s in sorted(CURATED_SIMPLE, key=lambda s: s.sort_key)]
    scope += [torus(k) for k in range(1, 6)]
    scope += [parse_group("SU(2)^3"), parse_group("SO(8) x G2 x T")]
    records = cross_validate(scope)
    assert all(r["pass"] for r in records)
    by_group = {r["group"]: r for r in records}
    assert by_group["G2"]["oracle_l"] == 5
    assert by_group["T^3"]["oracle_l"] == by_group["T^3"]["oracle_depth"] == 3
    for s in sorted(CURATED_SIMPLE, key=lambda t: t.sort_key):
        record = by_group[str(GroupType(0, ((s, 1),)))]
        assert record["oracle_depth"] == depth_simple(s)
        assert record["oracle_l"] == length(GroupType(0, ((s, 1),)))


def test_cross_validate_record_schema():
    record = cross_validate([parse_group("SU(2)")])[0]
    assert set(record) == {"group", "formula_l", "oracle_l", "formula_depth",
                           "oracle_depth", "pass"}
