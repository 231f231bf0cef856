import tracemalloc

import pytest
from hypothesis import given, strategies as st

from liechain.errors import MalformedTypeError, ParseError
from liechain.groups import (
    TRIVIAL,
    GroupType,
    SimpleType,
    canonicalize,
    iter_groups,
    iter_semisimple,
    iter_simple_types,
    parse_group,
    product,
    simple,
    torus,
)


def test_raw_constructor_rejects_non_canonical():
    for family, degree in [("SU", 1), ("SU", 0), ("Sp", 2), ("Sp", 5), ("SO", 6),
                           ("SO", 2), ("SO", 0), ("Sp", -4)]:
        with pytest.raises(MalformedTypeError):
            SimpleType(family, degree)
    with pytest.raises(MalformedTypeError):
        SimpleType("G2", 2)
    with pytest.raises(MalformedTypeError):
        SimpleType("SL", 3)


def test_canonicalize_coincidences():
    assert canonicalize("SO", 3) == simple("SU", 2)
    assert canonicalize("SO", 2) == torus(1)
    assert canonicalize("SO", 4) == GroupType(0, (SimpleType("SU", 2),) * 2)
    assert canonicalize("SO", 5) == simple("Sp", 4)
    assert canonicalize("SO", 6) == simple("SU", 4)
    assert canonicalize("SO", 1) == TRIVIAL
    assert canonicalize("SU", 1) == TRIVIAL
    assert canonicalize("Sp", 2) == simple("SU", 2)
    assert canonicalize("SU", 5) == simple("SU", 5)
    assert canonicalize("E8") == simple("E8")
    with pytest.raises(MalformedTypeError):
        canonicalize("Sp", 3)
    with pytest.raises(MalformedTypeError):
        canonicalize("SO", 0)


def test_canonicalize_idempotent():
    for family, top in [("SU", 12), ("Sp", 12), ("SO", 12)]:
        for n in range(1, top + 1):
            if family == "Sp" and n % 2:
                continue
            g = canonicalize(family, n)
            again = GroupType(g.torus_rank, tuple(
                canonicalize(s.family, s.degree).factors[0] for s in g.factors))
            assert again == g


@pytest.mark.parametrize("spec,dim,rank", [
    ("E8", 248, 8),
    ("SU(3)", 8, 2),
    ("Sp(6) x T^2", 23, 5),
    ("SO(7)", 21, 3),
    ("G2", 14, 2),
    ("1", 0, 0),
])
def test_dims_examples(spec, dim, rank):
    g = parse_group(spec)
    assert (g.dim, g.rank) == (dim, rank)


def test_dims_additive():
    a = parse_group("SU(4) x T")
    b = parse_group("SO(9) x G2")
    assert ((a * b).dim, (a * b).rank) == (a.dim + b.dim, a.rank + b.rank)


def test_root_count_inequality():
    # twice the rank never exceeds the number of roots (dim - rank)
    for s in iter_simple_types(max_degree=100):
        assert 2 * s.rank <= s.dim - s.rank


def test_semisimple_dim_rank_parity():
    for s in iter_simple_types(max_degree=30):
        assert (s.dim - s.rank) % 2 == 0


def test_parse_examples():
    assert parse_group("SU(5) x Sp(6)") == simple("SU", 5) * simple("Sp", 6)
    assert parse_group("SO(4)^2 x T^3") == GroupType(3, (SimpleType("SU", 2),) * 4)
    assert parse_group("1") == TRIVIAL
    assert parse_group("T") == torus(1)
    assert parse_group("su(2) X sp(4)") == simple("SU", 2) * simple("Sp", 4)
    assert parse_group("e6") == simple("E6")


def test_power_built_in_one_step_matches_repeated_product():
    for spec, atom, count in [("E8^3", "E8", 3), ("SO(4)^3", "SO(4)", 3),
                              ("so(2)^3", "SO(2)", 3)]:
        assert parse_group(spec) == product(parse_group(atom) for _ in range(count))
    assert parse_group("SO(4)^3 x SO(2)^2") == parse_group("SU(2)^6 x T^2")
    assert parse_group("so(2)^3") == torus(3)
    assert parse_group("SO(2)^99999999999999999999") == torus(99999999999999999999)


def test_power_over_the_factor_cap_rejected_before_allocating():
    tracemalloc.start()
    try:
        for text in ["SU(2)^1000001", "SO(4)^500001", "SU(2)^99999999999999999999"]:
            with pytest.raises(ParseError):
                parse_group(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # a million-factor tuple alone takes 8 MB


def test_parse_errors_carry_position():
    for text in ["SU(2", "SU 2)", "SU(2) y SU(3)", "1 x SU(2)", "", "T^0",
                 "SU(2)^0", "Sp(3)", "Q8", "SU(2) x", "T^2^3"]:
        with pytest.raises(ParseError):
            parse_group(text)
    try:
        parse_group("SU(2) ? T")
    except ParseError as exc:
        assert exc.position == 6


def test_factor_order_normalized():
    assert parse_group("Sp(6) x SU(2)") == parse_group("SU(2) x Sp(6)")
    assert str(parse_group("T^2 x SO(8) x SU(2)")) == "SU(2) x SO(8) x T^2"


_POOL = [SimpleType("SU", n) for n in range(2, 8)] + [
    SimpleType("Sp", 4), SimpleType("Sp", 6), SimpleType("SO", 7),
    SimpleType("SO", 8), SimpleType("G2"), SimpleType("F4")]


@st.composite
def group_types(draw, max_factors=4, max_torus=3):
    factors = draw(st.lists(st.sampled_from(_POOL), max_size=max_factors))
    z = draw(st.integers(min_value=0, max_value=max_torus))
    return GroupType(z, tuple(factors))


@given(group_types())
def test_parse_round_trip(g):
    assert parse_group(str(g)) == g


@given(group_types(max_factors=3), group_types(max_factors=3))
def test_product_commutes_and_adds_dims(a, b):
    assert a * b == b * a
    assert ((a * b).dim, (a * b).rank) == (a.dim + b.dim, a.rank + b.rank)


def test_iter_groups_bounded_and_unique():
    seen = list(iter_groups(12))
    assert len(seen) == len(set(seen))
    assert all(0 < g.dim <= 12 for g in seen)
    assert torus(12) in seen
    assert parse_group("SU(2)^4") in seen
    assert parse_group("SU(3) x T^4") in seen


def _recursive_groups(max_dim):
    """The group enumeration as one recursion over factor multisets, each
    followed by its torus ranks: the reference for ``iter_semisimple``."""
    simples = sorted(iter_simple_types(max_dim=max_dim), key=lambda s: s.sort_key)

    def extend(prefix, budget, start):
        yield prefix
        for i in range(start, len(simples)):
            s = simples[i]
            if s.dim <= budget:
                yield from extend(prefix + (s,), budget - s.dim, i)

    for factors in extend((), max_dim, 0):
        used = sum(s.dim for s in factors)
        for z in range(0 if factors else 1, max_dim - used + 1):
            yield GroupType(z, factors)


def test_iter_semisimple_flattens_to_the_group_enumeration():
    parts = list(iter_semisimple(30))
    assert parts[0] == (TRIVIAL, range(1, 31))
    assert all(h.torus_rank == 0 and zs == range(0, 31 - h.dim) for h, zs in parts[1:])
    flat = [GroupType(z, h.factors) for h, zs in parts for z in zs]
    assert flat == list(_recursive_groups(30)) == list(iter_groups(30))


@pytest.mark.parametrize("max_dim, n_parts, n_groups", [(60, 1530, 17472), (100, 28092, 414262)])
def test_iter_semisimple_counts(max_dim, n_parts, n_groups):
    parts = list(iter_semisimple(max_dim))
    assert len(parts) == n_parts
    assert sum(len(zs) for _, zs in parts) == n_groups


def test_iter_simple_types_degree_bound():
    types = list(iter_simple_types(max_degree=9))
    assert SimpleType("SU", 9) in types
    assert SimpleType("SO", 9) in types
    assert SimpleType("E8") in types
    assert SimpleType("SU", 10) not in types
