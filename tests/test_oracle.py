import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from liechain import suites
from liechain.cli import main
from liechain.errors import IncompleteDatabaseError
from liechain.formulas import depth, depth_simple, length
from liechain.groups import GroupType, SimpleType, iter_groups, iter_semisimple, parse_group, torus
from liechain.oracle import Oracle, oracle_depth, oracle_length
from liechain.subgroups import CURATED_SIMPLE, is_curated, maximal_connected, maximal_steps
from liechain.suites import cross_validate, run_suites

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


def group_fill(g, table):
    """Memoize (length, depth) of the semisimple part of ``g`` and every node
    below it, building each child as a ``GroupType`` through
    ``maximal_steps``: the oracle's search before it walked multiplicity
    vectors, kept as the reference for that walk."""

    def split(node):
        z = node.torus_rank
        return (node.semisimple_part if z else node), z

    def frame(node):
        h, _ = split(node)
        assert is_curated(h), node
        children = [(child, *split(child)) for child, _ in maximal_steps(h)]
        return h, children, iter(children)

    stack = [frame(g)]
    while stack:
        h, children, todo = stack[-1]
        for child, k, _ in todo:
            if not k.is_trivial and k not in table:
                stack.append(frame(child))
                break
        else:
            stack.pop()
            lengths, depths = [], []
            for _, k, z in children:
                l, d = (0, 0) if k.is_trivial else table[k]
                lengths.append(l + z)
                depths.append(d + z)
            table[h] = (1 + max(lengths), 1 + min(depths))


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


def test_vector_fill_matches_group_fill_node_for_node(monkeypatch):
    # every node below depbds and below each curated mixed part of dim <= 60,
    # from a fresh shared oracle
    fresh = Oracle()
    monkeypatch.setattr("liechain.oracle._default", fresh)
    run_suites(["depbds"], 60)
    for h, _ in iter_semisimple(60):
        if len(h.counts) > 1 and is_curated(h):
            oracle_depth(h)
    memo = fresh.table
    assert len(memo) == 2220
    reference = {}
    for h in memo:
        if h not in reference:
            group_fill(h, reference)
    assert reference == memo


def test_enumeration_sweeps_ask_the_oracle_only_to_fall_back(monkeypatch):
    # the part records bound mixed depths by the merging chain; the oracle
    # settles only the SU(2) x SU(3) x T^z the published cd list names
    fall_back = {parse_group(spec) for spec in ("SU(2)", "SU(3)", "SU(2)^2", "SU(2) x SU(3)")}
    sweeps = ["general", "dimlen", "sqrt", "ld", "cd", "lcd"]
    fresh = Oracle()
    monkeypatch.setattr("liechain.oracle._default", fresh)
    suites._decided.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(suites, "_superadditive", lambda h: True)
        run_suites(sweeps, 60)
    assert set(fresh.table) == fall_back
    # the one deliberate addition: lcd's superadditivity check reads the
    # refined cd of each mixed part of dim <= 40, so the oracle also fills
    # the closure of the curated ones, and nothing more
    closure = Oracle()
    monkeypatch.setattr("liechain.oracle._default", closure)
    for h, _ in iter_semisimple(40):
        if len(h.counts) > 1 and is_curated(h):
            oracle_depth(h)
    fresh = Oracle()
    monkeypatch.setattr("liechain.oracle._default", fresh)
    run_suites(sweeps, 60)
    assert set(fresh.table) == fall_back | set(closure.table)


def test_vector_fill_matches_full_type_recursion_on_curated_powers():
    # S^k reaches the diagonals, and the steps that add a torus (SU(n) >
    # S(U(k) x U(n - k)), the Levi subgroups) reach the torus ranks
    table = {}
    for s in sorted(CURATED_SIMPLE, key=lambda s: s.sort_key):
        for k in (1, 2, 3):
            g = GroupType(0, ((s, k),))
            assert Oracle().compute(g) == full_type_recursion(g, table), g


def test_widening_the_vector_fields_keeps_the_memo():
    # a query above dim 191 widens every field of the vector memo; what was
    # found at the narrower width is re-keyed, not recomputed or misread
    narrow, wide = parse_group("SO(8) x SU(2)^2"), parse_group("SO(8) x SU(2)^64")
    o = Oracle()
    o.compute(narrow)
    assert o.compute(wide) == (9 + 2 * 64, 4 + 64)
    reference = {}
    group_fill(wide, reference)
    assert o.table == reference


def test_cli_oracle_large_torus(capsys):
    # the torus rank is added to the value of the semisimple part; no
    # recursion runs through the 20000 torus drops
    assert main(["oracle", "SU(3) x T^20000"]) == 0
    assert capsys.readouterr().out == "length 20004  depth 20003\n"


def _python(code, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_import_leaves_recursion_limit_alone():
    proc = _python("import sys; before = sys.getrecursionlimit(); import liechain; "
                   "print(before, sys.getrecursionlimit())")
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert before == after


def test_import_builds_no_steps_and_no_memo():
    # the oracle reads the database's steps on its first search, not at import,
    # a chain reads its types' table steps on its first descent, and a table
    # builds each shared reducible kind on its first use
    proc = _python("import liechain, liechain.cli; from liechain import chains, oracle, subgroups; "
                   "print(subgroups._step_sequence.cache_info().currsize, "
                   "len(oracle._default.table), len(chains._LONGEST_STEPS), len(chains._SHORTEST_STEPS), "
                   "chains._first_factor.cache_info().currsize, len(subgroups._REDUCIBLE))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0 0 0 0 0\n", "")


def test_import_loads_neither_dataclasses_nor_inspect():
    # about a quarter of a cold CLI call's import went to dataclasses and the
    # inspect, dis and tokenize it pulls in; no answer needs them
    proc = _python("import sys, liechain, liechain.cli; "
                   "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# the modules only the theorem checks use: a query compiles none of them
_DEFERRED = ("liechain.suites", "liechain.radicals", "fractions", "decimal")

_QUERY_SESSION = """
import contextlib, io, sys
import liechain, liechain.cli

deferred = set(sys.argv[1:])
print(sorted(deferred & set(sys.modules)))
for flags in ([], ["--json"]):
    for argv in (["len", "SU(5) x G2"], ["depth", "SU(4) x Sp(4)"], ["cd", "SO(8) x T"],
                 ["dims", "E8^3"], ["maximals", "SU(7)"], ["chain", "--max", "Sp(6) x T"],
                 ["chain", "--min", "SU(3) x G2"], ["verify-chain", "-"],
                 ["oracle", "SU(3) x SU(2)"]):
        sys.stdin = io.StringIO("Sp(6) x T\\nSp(6)\\nSU(2) x Sp(4)\\nSp(4) x T\\nSp(4)\\n"
                                "SU(2)^2\\nSU(2) x T\\nSU(2)\\nT\\n1\\n")
        with contextlib.redirect_stdout(io.StringIO()):
            code = liechain.cli.main(flags + argv)
        print(" ".join(flags + argv), code, sorted(deferred & set(sys.modules)))
"""


def test_queries_load_neither_the_suites_nor_the_radicals():
    # every command of the queries and large-inputs benchmark workloads, plain
    # and --json, answers without the modules the theorem checks compile
    proc = _python(_QUERY_SESSION, *_DEFERRED)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert len(lines) == 19
    for line in lines[1:]:
        assert line.endswith(" 0 []"), line


def test_importing_the_suites_loads_the_radicals():
    # the benchmark imports the suites before its timed sweep: the radical
    # arithmetic must be compiled then, not in the first radical suite
    proc = _python("import sys, liechain.suites; "
                   f"print(sorted(set({_DEFERRED!r}) - set(sys.modules)))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# the public names of ``liechain``, by the module that defines each
_EXPORTS = {
    "chains": "Chain VerifyReport max_chain min_chain parse_chain_text verify_chain",
    "errors": "IncompleteDatabaseError LieChainError MalformedTypeError ParseError "
              "TrivialGroupError",
    "formulas": "BoundsOrExact chain_difference depth depth_simple f_classical is_cd_one "
                "is_length_eq_depth length length_complex_semisimple",
    "groups": "TRIVIAL GroupType SimpleType canonicalize iter_groups iter_semisimple "
              "iter_simple_types parse_group product simple torus",
    "oracle": "Oracle oracle_depth oracle_length",
    "radicals": "ALPHA BETA QuadExpr",
    "subgroups": "CURATED_SIMPLE CompletenessFlag EmbeddingKind MaximalEntry is_curated "
                 "is_maximal_step maximal_connected",
    "suites": "Check check_dimlen check_lcd check_sqrt_lower_bound cross_validate "
              "elem_inequalities lendim_formula min_irrep_dim smalll_deficit",
}


def test_public_names_are_the_defining_modules_objects():
    # read through the package first, in a fresh interpreter, so the names
    # that load on first access are resolved by the package itself
    proc = _python(f"""
import importlib, liechain
exports = {_EXPORTS!r}
names = [(module, name) for module, names in exports.items() for name in names.split()]
public = set(dir(liechain))
got = [(module, name, getattr(liechain, name)) for module, name in names]
print([name for module, name, value in got
       if name not in public
       or value is not getattr(importlib.import_module("liechain." + module), name)])
print([module for module in exports
       if getattr(liechain, module) is not importlib.import_module("liechain." + module)])
""")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n[]\n", "")


def test_an_unknown_package_attribute_raises_attribute_error():
    import liechain

    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        liechain.nosuch


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
