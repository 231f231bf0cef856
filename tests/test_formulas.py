import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liechain import suites
from liechain.errors import MalformedTypeError
from liechain.formulas import (
    BoundsOrExact,
    chain_difference,
    complex_depth_simple,
    depth,
    depth_simple,
    f_classical,
    is_cd_one,
    is_length_eq_depth,
    length,
    length_complex_semisimple,
    length_simple,
    merging_depth,
    min_step_simple,
)
from liechain.groups import SimpleType, iter_semisimple, iter_simple_types, parse_group, simple
from liechain.oracle import oracle_depth
from liechain.radicals import ALPHA, BETA, BETA_INV, QuadExpr
from liechain.subgroups import YES, is_curated, is_maximal_step
from liechain.suites import (
    _quad_cd_bound,
    _quad_cd_limit,
    _sqrt_bound,
    _sqrt_threshold,
    check_dimlen,
    check_lcd,
    check_sqrt_lower_bound,
    elem_inequalities,
    is_published_cd_one,
    lendim_formula,
    smalll_deficit,
)


def test_bounds_or_exact():
    exact = BoundsOrExact.exact(5)
    assert exact.is_exact and exact.exact_value == 5 and exact.to_json() == 5
    window = BoundsOrExact(4, 7)
    assert not window.is_exact and 5 in window and 8 not in window
    assert window.to_json() == {"lower": 4, "upper": 7}
    with pytest.raises(ValueError):
        BoundsOrExact(3, 2)
    with pytest.raises(ValueError):
        window.exact_value


@pytest.mark.parametrize("family,n,expected", [
    ("SU", 5, 8), ("SO", 8, 9), ("Sp", 4, 5), ("SU", 2, 2), ("SO", 7, 7),
])
def test_f_classical(family, n, expected):
    assert f_classical(family, n) == expected


def test_f_classical_range_errors():
    for family, n in [("SU", 1), ("Sp", 3), ("Sp", 2), ("SO", 6), ("G2", 2)]:
        with pytest.raises(MalformedTypeError):
            f_classical(family, n)


@pytest.mark.parametrize("spec,expected", [
    ("G2", 5), ("F4", 11), ("E6", 13), ("E7", 17), ("E8", 20),
    ("SU(3) x SU(2)", 6), ("T^7", 7), ("1", 0), ("SO(16)", 19),
])
def test_length(spec, expected):
    assert length(parse_group(spec)) == expected


def test_length_additive():
    a, b = parse_group("SU(4) x T^2"), parse_group("SO(11) x G2")
    assert length(a * b) == length(a) + length(b)


@pytest.mark.parametrize("spec,expected", [
    ("SU(2)", 3), ("G2", 10), ("E8", 136),
])
def test_length_complex(spec, expected):
    assert length_complex_semisimple(parse_group(spec)) == expected


def test_length_complex_requires_semisimple():
    with pytest.raises(ValueError):
        length_complex_semisimple(parse_group("SU(2) x T"))


def test_compact_length_below_complex():
    for s in iter_simple_types(max_degree=40):
        assert length_simple(s) < length_complex_semisimple(simple(s.family, s.degree))


@pytest.mark.parametrize("family,degree,expected", [
    ("SU", 2, 2), ("SU", 3, 3), ("SU", 4, 4), ("SU", 6, 4), ("SU", 7, 5),
    ("SU", 8, 4), ("Sp", 4, 3), ("Sp", 30, 3), ("SO", 7, 4), ("SO", 8, 4),
    ("SO", 9, 3), ("SO", 10, 4), ("SO", 11, 3), ("SO", 12, 4),
    ("G2", 0, 3), ("F4", 0, 3), ("E6", 0, 4), ("E7", 0, 3), ("E8", 0, 3),
])
def test_depth_simple_table(family, degree, expected):
    assert depth_simple(SimpleType(family, degree)) == expected


def test_depth_complex_offset_data():
    for s in iter_simple_types(max_degree=60):
        assert depth_simple(s) == complex_depth_simple(s) - 1


def test_depth_values():
    assert depth(parse_group("SU(2)^5")) == BoundsOrExact.exact(6)
    assert depth(parse_group("SU(2)^2")) == BoundsOrExact.exact(3)
    assert depth(parse_group("T^9")) == BoundsOrExact.exact(9)
    assert depth(parse_group("SO(7)^2 x T^2")) == BoundsOrExact.exact(7)
    window = depth(parse_group("SU(4) x Sp(4)"))
    assert window == BoundsOrExact(4, 7)
    assert depth(parse_group("SU(4) x Sp(4)"), refine=True) == BoundsOrExact.exact(5)
    # outside the curated set the interval stays an interval
    assert not depth(parse_group("SU(7) x SU(2)"), refine=True).is_exact


@pytest.mark.parametrize("spec, l, d", [("SU(2)^1000000", 2_000_000, 1_000_001),
                                         ("E8^1000000", 20_000_000, 1_000_002)])
def test_powers_at_the_cap_cost_no_memory_per_copy(spec, l, d):
    depth(parse_group(spec))  # fill the simple-depth cache outside the trace
    tracemalloc.start()
    try:
        g = parse_group(spec)
        assert (length(g), depth(g).exact_value, str(g)) == (l, d, spec)
        assert g.dim == 1_000_000 * g.counts[0][0].dim
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # a million-entry factor tuple alone takes 8 MB


def test_rank_bounds_on_simple_lengths():
    for s in iter_simple_types(max_degree=60):
        assert 2 * s.rank <= length_simple(s) <= 3 * s.rank - 1


def test_chain_difference():
    assert chain_difference(parse_group("SU(3)")) == BoundsOrExact.exact(1)
    assert chain_difference(parse_group("SU(2)")) == BoundsOrExact.exact(0)
    for k in range(1, 6):
        assert chain_difference(parse_group(f"SU(2)^{k}")) == BoundsOrExact.exact(k - 1)
    assert chain_difference(parse_group("SU(3) x SU(2)"), refine=True) == BoundsOrExact.exact(2)


def test_length_eq_depth_predicate():
    assert is_length_eq_depth(parse_group("T^4"))
    assert is_length_eq_depth(parse_group("SU(2) x T^9"))
    assert not is_length_eq_depth(parse_group("SU(2)^2"))
    assert not is_length_eq_depth(parse_group("SU(3)"))


def test_cd_one_predicate():
    assert is_cd_one(parse_group("SU(3) x T^2"))
    assert is_cd_one(parse_group("SU(2)^2"))
    # the published list names SU(3) x SU(2), but its chain difference is 2
    # (certified in test_cd_certificate.py)
    assert not is_cd_one(parse_group("SU(3) x SU(2) x T"))
    assert is_published_cd_one(parse_group("SU(3) x SU(2) x T"))
    assert not is_cd_one(parse_group("SU(2)^3"))
    assert not is_cd_one(parse_group("SU(4)"))


def test_check_dimlen():
    for spec in ["SU(2)", "T^5", "E8", "SO(9) x SU(2) x T"]:
        for check in check_dimlen(parse_group(spec)):
            assert check.passed, (spec, check)
    e8 = {c.claim: c for c in check_dimlen(parse_group("E8"))}
    assert "228 <= 248" in e8["dimension deficit bounds the semisimple dimension"].lhs


def test_check_sqrt_lower_bound():
    for spec in ["E8", "F4", "T", "SU(2)", "SO(11) x G2 x T^3"]:
        for check in check_sqrt_lower_bound(parse_group(spec)):
            assert check.passed, (spec, check)


@pytest.mark.parametrize("family,degree,expected", [
    ("SU", 4, 6), ("Sp", 6, 8), ("SO", 9, 10), ("SO", 8, 9), ("SO", 7, 7), ("SU", 2, 2),
])
def test_lendim_formula(family, degree, expected):
    assert lendim_formula(SimpleType(family, degree)) == QuadExpr.rational(expected)


def test_lendim_formula_rejects_exceptional():
    with pytest.raises(MalformedTypeError):
        lendim_formula(SimpleType("E6"))


def test_elem_inequalities():
    growth, sum_one, sum_alpha = elem_inequalities(3, 3)
    assert growth is True and sum_one is True and sum_alpha is None
    growth, sum_one, sum_alpha = elem_inequalities(1, 0)
    assert growth is True and sum_one is None
    growth, sum_one, sum_alpha = elem_inequalities(78, 78)
    assert sum_alpha is True
    assert elem_inequalities(Fraction(1, 2), 1) == (None, None, None)


def quad_elem_inequalities(x, y):
    """The three elementary inequalities as ``QuadExpr`` comparisons, each
    side built as written: the reference for ``elem_inequalities``."""
    x, y = Fraction(x), Fraction(y)
    first = second = third = None
    if x >= 1:
        first = QuadExpr.rational(1) + BETA * QuadExpr.sqrt(x) >= BETA * QuadExpr.sqrt(x + 1)
    if x >= 3 and y >= 3:
        second = QuadExpr.sqrt(x) + QuadExpr.sqrt(y) >= QuadExpr.sqrt(x + y) + 1
    if x >= 78 and y >= 78:
        third = QuadExpr.sqrt(x) + QuadExpr.sqrt(y) >= QuadExpr.sqrt(x + y) + ALPHA
    return first, second, third


# the rational grid of the sqrt suite
_ELEM_GRID = [Fraction(1), Fraction(3, 2), Fraction(3), Fraction(7), Fraction(25, 2),
              Fraction(78), Fraction(100), Fraction(625, 4)]


def _counted_signs(monkeypatch):
    signs = []
    sign = QuadExpr.sign
    monkeypatch.setattr(QuadExpr, "sign", lambda v: signs.append(v) or sign(v))
    return signs


def test_elem_inequalities_match_quadexpr_on_the_suite_grid(monkeypatch):
    want = {(x, y): quad_elem_inequalities(x, y) for x in _ELEM_GRID for y in _ELEM_GRID}
    signs = _counted_signs(monkeypatch)
    for (x, y), verdicts in want.items():
        assert elem_inequalities(x, y) == verdicts, (x, y)
    assert signs == []  # every pair decided in integers


def test_elem_inequalities_fall_back_where_the_brackets_overlap(monkeypatch):
    # unscaled brackets are too coarse to separate the sides of (iii), so the
    # QuadExpr comparison decides, with the same verdicts
    monkeypatch.setattr(suites, "_BRACKET_BITS", 0)
    signs = _counted_signs(monkeypatch)
    for x in _ELEM_GRID[5:]:
        for y in _ELEM_GRID[5:]:
            signs.clear()
            assert elem_inequalities(x, y) == quad_elem_inequalities(x, y), (x, y)
            assert signs, (x, y)


_RATIONALS = st.one_of(st.fractions(0, 20, max_denominator=64),
                       st.fractions(70, 2000, max_denominator=64))


@settings(max_examples=300, deadline=None)
@given(_RATIONALS, _RATIONALS)
def test_elem_inequalities_match_quadexpr_on_rationals(x, y):
    assert elem_inequalities(x, y) == quad_elem_inequalities(x, y)


def merging_chain(g):
    """The nodes of the merging chain of ``g``, built as ``merging_depth``
    describes it: diagonals first, then shortest steps by decreasing
    ``depth_simple`` with a diagonal merge where a step meets a factor
    already present, then the torus drops."""
    nodes = [g]
    for s, k in g.counts:
        for _ in range(k - 1):
            nodes.append(nodes[-1].drop_one(s))
    while nodes[-1].counts:
        s = max((s for s, _ in nodes[-1].counts), key=depth_simple)
        below = min_step_simple(s)
        nodes.append(nodes[-1].replace_one(s, below))
        if any(k > 1 for _, k in nodes[-1].counts):
            nodes.append(nodes[-1].drop_one(below.counts[0][0]))
    while nodes[-1].torus_rank:
        nodes.append(nodes[-1].with_torus(-1))
    return nodes


def test_merging_chain_steps_are_maximal_and_count_the_bound():
    # named groups, non-curated and exceptional ones included, and every
    # 23rd part of dim <= 40 at its first two torus ranks
    groups = [parse_group(spec) for spec in (
        "SU(4) x Sp(4)", "SU(7) x SU(2)", "E8 x SO(20) x SU(7)^2 x T^3",
        "E6 x F4 x G2 x SO(9)", "SU(12) x Sp(10)^3 x SO(8) x SU(3) x T",
        "SO(10) x SO(9) x SO(8) x SO(7) x SU(2)^4", "SU(5)^2 x T^2", "E7 x T", "T^4")]
    groups += [h.with_torus(z) for i, (h, zs) in enumerate(iter_semisimple(40))
               if i % 23 == 0 for z in zs[:2]]
    for g in groups:
        nodes = merging_chain(g)
        assert nodes[-1].is_trivial, g
        for parent, child in itertools.pairwise(nodes):
            assert is_maximal_step(parent, child) == YES, (parent, child)
        assert len(nodes) - 1 == merging_depth(g), g


def test_merging_depth_bounds_the_depth_at_dim_60():
    # exact off the mixed products; on them within the closed-form interval,
    # never below the brute force, and shifted by the torus rank
    curated = met = bounded = closed = 0
    for h, zs in iter_semisimple(60):
        bound = merging_depth(h)
        assert merging_depth(h.with_torus(zs[-1])) == bound + zs[-1]
        d = depth(h)
        if len(h.counts) < 2:
            assert bound == d.exact_value, h
            continue
        assert d.lower <= bound <= d.upper, h
        if is_curated(h):
            brute = oracle_depth(h)
            assert bound >= brute, h
            curated, met = curated + 1, met + (bound == brute)
        else:
            bounded, closed = bounded + 1, closed + (bound == d.lower)
    assert (curated, met) == (1360, 1294)
    assert (bounded, closed) == (112, 56)


def test_smalll_deficit():
    assert smalll_deficit((7, 7)).sign() < 0
    assert smalll_deficit((8, 7)).sign() > 0
    assert smalll_deficit((7, 7, 7)).sign() >= 0
    assert smalll_deficit((20, 7, 7, 7)).sign() > 0
    with pytest.raises(MalformedTypeError):
        smalll_deficit((7,))
    with pytest.raises(MalformedTypeError):
        smalll_deficit((7, 8))
    with pytest.raises(MalformedTypeError):
        smalll_deficit((8, 6))


def smalll_deficit_negative(ns):
    """Whether ``smalll_deficit(ns)`` is negative, decided in integers from
    the tuple's sums, as ``suite_smalll`` decides it."""
    return suites.smalll_sums_negative(*suites._smalll_sums(ns))


def test_smalll_integer_sign_matches_exact_deficit():
    # every tuple the smalll suite checks: k in 2..4, 20 >= n_1 >= n_i >= 7
    checked = 0
    for k in (2, 3, 4):
        for n1 in range(7, 21):
            for rest in itertools.product(range(7, n1 + 1), repeat=k - 1):
                ns = (n1, *rest)
                checked += 1
                assert smalll_deficit_negative(ns) == (smalll_deficit(ns).sign() < 0), ns
    assert checked == 12145
    with pytest.raises(MalformedTypeError):
        smalll_deficit_negative((7, 8))


def test_check_lcd_boundaries():
    for k in range(1, 6):
        checks = check_lcd(parse_group(f"SU(2)^{k}"))
        assert all(c.passed for c in checks)
    by_claim = {c.claim: c for c in check_lcd(parse_group("SO(7)"))}
    twice = by_claim["simple length at most twice chain difference plus slack"]
    assert twice.passed and "2*cd+1 = 7" in twice.rhs
    assert all(c.passed for c in check_lcd(parse_group("SU(3)")))
    assert all(c.passed for c in check_lcd(parse_group("G2")))
    assert all(c.passed for c in check_lcd(parse_group("SU(3) x SU(2)")))
    assert all(c.passed for c in check_lcd(parse_group("SO(7)^3")))


def test_check_json_schema():
    check = check_lcd(parse_group("SU(3)"))[0]
    payload = check.to_json()
    assert set(payload) == {"claim", "inputs", "lhs", "rhs", "pass"}


def test_small_depth_classification():
    # depth 1 only at the circle; depth 2 only at T^2 and SU(2)
    from liechain.groups import iter_groups

    ones, twos = [], []
    for g in iter_groups(20):
        d = depth(g, refine=True)
        assert d.is_exact
        if d.exact_value == 1:
            ones.append(str(g))
        elif d.exact_value == 2:
            twos.append(str(g))
    assert ones == ["T"]
    assert sorted(twos) == ["SU(2)", "T^2"]


def test_sqrt_threshold_against_direct_comparisons():
    # the least integer at or above beta (sqrt(dim) - xi), for both xi,
    # checked with QuadExpr comparisons built apart from the threshold
    for xi_is_alpha, xi in ((True, ALPHA), (False, QuadExpr.rational(1))):
        for dim in range(1, 401):
            bound = BETA * (QuadExpr.sqrt(dim) - xi)
            assert _sqrt_bound(dim, xi_is_alpha) == bound
            t = _sqrt_threshold(dim, xi_is_alpha)
            assert QuadExpr.rational(t) >= bound and not QuadExpr.rational(t - 1) >= bound
    # E8 attains beta (sqrt(248) - alpha) = 20 exactly: l = 20 passes, 19 fails
    assert _sqrt_threshold(248, True) == 20 == length_simple(SimpleType("E8"))


def test_quad_cd_limit_against_direct_comparisons():
    for cd in range(0, 101):
        root = BETA_INV * (2 * cd + 2) + ALPHA
        bound = root * root
        assert _quad_cd_bound(cd) == bound
        m = _quad_cd_limit(cd)
        assert QuadExpr.rational(m) <= bound and not QuadExpr.rational(m + 1) <= bound


def test_integer_thresholds_match_the_exact_ceiling_and_floor():
    # the isqrt forms against QuadExpr's exact rounding over a wide range;
    # each range takes both of the two candidates each form chooses between
    for xi_is_alpha in (True, False):
        for dim in range(1, 5001):
            assert _sqrt_threshold(dim, xi_is_alpha) == _sqrt_bound(dim, xi_is_alpha).ceil()
    for cd in range(0, 2001):
        assert _quad_cd_limit(cd) == _quad_cd_bound(cd).floor()
