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
    assert canonicalize("SO", 4) == GroupType(0, ((SimpleType("SU", 2), 2),))
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
                (canonicalize(s.family, s.degree).counts[0][0], k) for s, k in g.counts))
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
    assert parse_group("SO(4)^2 x T^3") == GroupType(3, ((SimpleType("SU", 2), 4),))
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
    return GroupType(z, tuple((s, 1) for s in factors))


@given(group_types())
def test_parse_round_trip(g):
    assert parse_group(str(g)) == g


@given(group_types(max_factors=3), group_types(max_factors=3))
def test_product_commutes_and_adds_dims(a, b):
    assert a * b == b * a
    assert ((a * b).dim, (a * b).rank) == (a.dim + b.dim, a.rank + b.rank)


class _FlatGroup:
    """The one-entry-per-copy representation that the multiplicity pairs
    replaced: a sorted factor tuple and its operations, as the reference."""

    def __init__(self, torus_rank, factors):
        self.torus_rank = torus_rank
        self.factors = tuple(sorted(factors, key=lambda s: s.sort_key))

    def counts(self):
        out = []
        for s in self.factors:
            if out and out[-1][0] == s:
                out[-1] = (s, out[-1][1] + 1)
            else:
                out.append((s, 1))
        return tuple(out)

    def __mul__(self, other):
        return _FlatGroup(self.torus_rank + other.torus_rank, self.factors + other.factors)

    def drop_one(self, s):
        fs = list(self.factors)
        fs.remove(s)
        return _FlatGroup(self.torus_rank, fs)

    def replace_one(self, s, replacement):
        fs = list(self.factors)
        fs.remove(s)
        return _FlatGroup(self.torus_rank + replacement.torus_rank,
                          tuple(fs) + replacement.factors)

    @property
    def sort_key(self):
        return (tuple(s.sort_key for s in self.factors), self.torus_rank)

    @property
    def dim(self):
        return self.torus_rank + sum(s.dim for s in self.factors)

    @property
    def rank(self):
        return self.torus_rank + sum(s.rank for s in self.factors)

    def __str__(self):
        if self.torus_rank == 0 and not self.factors:
            return "1"
        parts = [str(s) if k == 1 else f"{s}^{k}" for s, k in self.counts()]
        if self.torus_rank == 1:
            parts.append("T")
        elif self.torus_rank > 1:
            parts.append(f"T^{self.torus_rank}")
        return " x ".join(parts)


def _assert_agrees(g, flat):
    assert g.torus_rank == flat.torus_rank
    assert g.counts == flat.counts()
    assert (g.sort_key, g.dim, g.rank, str(g)) == (flat.sort_key, flat.dim, flat.rank, str(flat))


def _assert_operations_agree(a, flat_a, b, flat_b):
    _assert_agrees(a, flat_a)
    _assert_agrees(a * b, flat_a * flat_b)
    assert (a.sort_key < b.sort_key) == (flat_a.sort_key < flat_b.sort_key)
    for s, _ in a.counts:
        _assert_agrees(a.drop_one(s), flat_a.drop_one(s))
        _assert_agrees(a.replace_one(s, b), flat_a.replace_one(s, flat_b))


def _flat(g):
    return _FlatGroup(g.torus_rank, [s for s, k in g.counts for _ in range(k)])


def test_multiplicities_below_one_rejected():
    s = SimpleType("SU", 3)
    for k in (0, -1):
        with pytest.raises(MalformedTypeError):
            GroupType(0, ((s, k),))
        with pytest.raises(MalformedTypeError):
            GroupType(1, ((SimpleType("SU", 2), 2), (s, k)))


def test_split_and_unsorted_pairs_normalise():
    s, t = SimpleType("SU", 2), SimpleType("G2")
    assert GroupType(0, ((s, 1), (s, 2))).counts == ((s, 3),)
    assert GroupType(2, ((t, 1), (s, 2), (t, 1))) == GroupType(2, ((s, 2), (t, 2)))
    assert GroupType(2, ((t, 1), (s, 2), (t, 1))).counts == ((s, 2), (t, 2))


@given(st.lists(st.sampled_from(_POOL), max_size=4), st.integers(0, 3),
       st.lists(st.sampled_from(_POOL), max_size=4), st.integers(0, 3))
def test_pairs_agree_with_the_flat_factor_tuple(fa, za, fb, zb):
    # one pair per drawn copy, in drawn order: split and unsorted
    a = GroupType(za, tuple((s, 1) for s in fa))
    b = GroupType(zb, tuple((s, 1) for s in fb))
    _assert_operations_agree(a, _FlatGroup(za, fa), b, _FlatGroup(zb, fb))


def test_pairs_agree_with_the_flat_factor_tuple_on_the_enumeration():
    groups = list(iter_groups(30))
    for a, b in zip(groups, groups[1:] + groups[:1]):
        _assert_operations_agree(a, _flat(a), b, _flat(b))


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
            yield GroupType(z, tuple((s, 1) for s in factors))


def test_iter_semisimple_flattens_to_the_group_enumeration():
    parts = list(iter_semisimple(30))
    assert parts[0] == (TRIVIAL, range(1, 31))
    assert all(h.torus_rank == 0 and zs == range(0, 31 - h.dim) for h, zs in parts[1:])
    flat = [GroupType(z, h.counts) for h, zs in parts for z in zs]
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
