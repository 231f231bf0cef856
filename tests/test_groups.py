import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from liechain.errors import MalformedTypeError, ParseError
from liechain.groups import (
    MAX_POWER_FACTORS,
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


@pytest.mark.parametrize("family, degree, message", [
    ("Sp", 3, "Sp(3) is malformed (degree must be even)"),
    ("Sp", 1, "Sp(1) is malformed (degree must be even)"),
    ("Sp", -2, "Sp degree must be positive, got -2"),
    ("Sp", 0, "Sp degree must be positive, got 0"),
    ("SO", 0, "SO degree must be positive, got 0"),
    ("SO", -3, "SO degree must be positive, got -3"),
    ("SU", 0, "SU degree must be positive, got 0"),
    ("SU", -1, "SU degree must be positive, got -1"),
    ("XY", 3, "unknown family 'XY'"),
    ("XY", 0, "unknown family 'XY'"),
    ("T", -1, "torus rank must be nonnegative"),
    ("T", -5, "torus rank must be nonnegative"),
])
def test_canonicalize_rejects_out_of_range_input_with_its_message(family, degree, message):
    # the range checks are made where the factor or torus is built
    # (``SimpleType``, ``_canonical``); the messages are part of the CLI's output
    with pytest.raises(MalformedTypeError) as exc:
        canonicalize(family, degree)
    assert str(exc.value) == message


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


class _ReferenceParser:
    """The recursive-descent parser that ``parse_group`` replaced, kept as
    the reference: it tokenizes one match at a time, walks the tokens
    through method calls, and multiplies the group out term by term."""

    TOKEN = re.compile(r"\s*([A-Za-z]+[0-9]*|[0-9]+|[()^])")

    def __init__(self, text):
        self.text = text
        self.tokens = self.tokenize(text)
        self.i = 0

    @classmethod
    def tokenize(cls, text):
        tokens = []
        pos = 0
        while pos < len(text):
            m = cls.TOKEN.match(text, pos)
            if not m:
                while pos < len(text) and text[pos].isspace():
                    pos += 1
                if pos == len(text):
                    break
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        return tokens

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, literal):
        tok, pos = self.next()
        if tok != literal:
            raise ParseError(f"expected {literal!r}, found {tok!r}", pos)

    def parse_int(self):
        tok, pos = self.next()
        if tok is None or not tok.isdigit():
            raise ParseError(f"expected integer, found {tok!r}", pos)
        return int(tok)

    def parse_group(self):
        tok, _ = self.peek()
        if tok == "1":
            self.next()
            tok, pos = self.peek()
            if tok is not None:
                raise ParseError("trivial group '1' cannot be combined", pos)
            return TRIVIAL
        out = self.parse_term()
        while True:
            tok, pos = self.peek()
            if tok is None:
                return out
            if tok.lower() != "x":
                raise ParseError(f"expected 'x' separator, found {tok!r}", pos)
            self.next()
            out = out * self.parse_term()

    def parse_term(self):
        atom, had_power = self.parse_atom()
        tok, pos = self.peek()
        if tok == "^":
            if had_power:
                raise ParseError("repeated '^' exponent", pos)
            self.next()
            count = self.parse_int()
            if count < 1:
                raise ParseError("exponent must be positive", pos)
            if sum(k for _, k in atom.counts) * count > MAX_POWER_FACTORS:
                raise ParseError(
                    f"power has more than {MAX_POWER_FACTORS} simple factors", pos)
            return GroupType(atom.torus_rank * count,
                             tuple((s, k * count) for s, k in atom.counts))
        return atom

    def parse_atom(self):
        tok, pos = self.next()
        if tok is None:
            raise ParseError("unexpected end of input", pos)
        name = tok.lower()
        if name in ("su", "sp", "so"):
            family = {"su": "SU", "sp": "Sp", "so": "SO"}[name]
            self.expect("(")
            degree = self.parse_int()
            self.expect(")")
            try:
                return canonicalize(family, degree), False
            except MalformedTypeError as exc:
                raise ParseError(str(exc), pos) from exc
        if name in ("g2", "f4", "e6", "e7", "e8"):
            return simple(name.upper()), False
        if name == "t":
            tok2, pos2 = self.peek()
            if tok2 == "^":
                self.next()
                rank = self.parse_int()
                if rank < 1:
                    raise ParseError("torus rank must be positive", pos2)
                return torus(rank), True
            return torus(1), False
        raise ParseError(f"unknown atom {tok!r}", pos)


def _reference_parse(text):
    if not text.strip():
        raise ParseError("empty group spec", 0)
    return _ReferenceParser(text).parse_group()


def _outcome(parse, text):
    """The group ``parse`` builds from ``text``, or its error's message and
    position."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.position


_ALPHABET = ["SU", "sp", "So", "G2", "e8", "T", "x", "X", "(", ")", "^",
             "0", "1", "7", "36", " ", "  ", "?", ","]


@settings(max_examples=800, deadline=None)
@given(st.lists(st.sampled_from(_ALPHABET), max_size=14).map("".join))
def test_parser_matches_the_reference_parser(text):
    assert _outcome(parse_group, text) == _outcome(_reference_parse, text)


# well-formed terms, so that the drawn specs mostly parse or fail late
_TERMS = ["SU(2)", "su(7)", "Sp(36)", "SO(1)", "so(4)", "SO(2)", "Sp(2)", "Sp(7)",
          "SU(0)", "G2", "e8", "T", "T^7", "T^0", "SU(3)^2", "SO(4)^36", "E8^0", "T^1^7"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_TERMS), min_size=1, max_size=5),
       st.lists(st.sampled_from([" x ", "X", " x", "x ", " ", "  x  ", " ? ", ","]),
                min_size=4, max_size=4),
       st.sampled_from(["", " ", "1 x ", "\t", " 1"]), st.sampled_from(["", " ", " x", "^", "\n"]))
def test_parser_matches_the_reference_parser_on_terms(terms, seps, head, tail):
    text = head + terms[0] + "".join(s + t for s, t in zip(seps, terms[1:])) + tail
    assert _outcome(parse_group, text) == _outcome(_reference_parse, text)


def test_parser_matches_the_reference_parser_on_fixed_specs():
    for text in ["SU(2", "SU 2)", "SU(2) y SU(3)", "1 x SU(2)", "", "   ", "T^0",
                 "SU(2)^0", "Sp(3)", "Q8", "SU(2) x", "T^2^3", "SU(2) ? T", "SU(2)?",
                 "  ?", "1", " 1 ", "1 1", "SU2", "x", "SO(4)^500001", "SU(2)^1000000",
                 "SU(5) x Sp(6) x SU(5) x T x T^3", "SO(2)^99999999999999999999",
                 "Sp(36)^2 x SO(18)^3 x Sp(26)^3", "su(2)\tX\nsp(4)", "SU(2) x (T)",
                 "SU(\u00b2)", "SU(2)\u3000x T", "E8^", "T^", "SU()", "SU(2)^x"]:
        assert _outcome(parse_group, text) == _outcome(_reference_parse, text), text


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


def test_constructions_that_skip_the_merge_equal_the_normalised_ones():
    # with_torus, semisimple_part and the enumeration reuse pairs that are
    # already canonical instead of sorting and merging them again
    for g in iter_groups(30):
        for extra in (-g.torus_rank, 0, 2):
            h = g.with_torus(extra)
            want = GroupType(g.torus_rank + extra, tuple(reversed(g.counts)))
            assert h == want and hash(h) == hash(want) and h.counts == want.counts
        assert g.semisimple_part == GroupType(0, g.counts)
    with pytest.raises(MalformedTypeError):
        parse_group("SU(3) x T").with_torus(-2)


# raw atoms as the parser hands them to ``canonicalize``: canonical factors,
# the low-rank pieces it folds (SU(1), Sp(2), SO(2..6)) and tori
_RAW_ATOMS = ([("SU", n) for n in range(1, 6)] + [("Sp", n) for n in (2, 4, 6)]
              + [("SO", n) for n in range(2, 9)] + [("G2", 0), ("F4", 0), ("T", 1), ("T", 2)])


@st.composite
def canonical_groups(draw):
    """A bare ``canonicalize`` piece, or a product of pieces built by the
    sorting constructor."""
    pieces = [canonicalize(*atom) for atom in
              draw(st.lists(st.sampled_from(_RAW_ATOMS), min_size=1, max_size=5))]
    if len(pieces) == 1:
        return pieces[0]
    return GroupType(sum(g.torus_rank for g in pieces), tuple(p for g in pieces for p in g.counts))


@given(canonical_groups(), canonical_groups())
def test_merging_constructions_equal_the_sorting_constructor(a, b):
    # ``*`` and ``replace_one`` merge the canonical pairs of their operands
    # in one pass; the constructor sorts and merges any pairs
    def assert_same(got, want):
        assert got == want and got.counts == want.counts and hash(got) == hash(want)

    for g in (a, b):
        assert_same(g, GroupType(g.torus_rank, tuple(reversed(g.counts))))
    assert_same(a * b, GroupType(a.torus_rank + b.torus_rank, a.counts + b.counts))
    for s, _ in a.counts:
        rest = tuple((t, k - 1 if t == s else k) for t, k in a.counts if t != s or k > 1)
        assert_same(a.replace_one(s, b),
                    GroupType(a.torus_rank + b.torus_rank, rest + b.counts))


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
