"""Group types for compact connected Lie groups.

A group is represented up to isogeny as a torus rank plus a multiset of
simple factors drawn from the canonical families SU_n (n >= 2),
Sp_n (n >= 4 even), SO_n (n >= 7) and G2, F4, E6, E7, E8.  Low-rank
orthogonal/symplectic coincidences (SO_3 = SU_2, SO_6 = SU_4, Sp_2 = SU_2,
...) are resolved eagerly so that equal groups always compare equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import MalformedTypeError, ParseError

FAMILIES = ("SU", "Sp", "SO", "G2", "F4", "E6", "E7", "E8")
CLASSICAL_FAMILIES = ("SU", "Sp", "SO")
_FAMILY_ORDER = {fam: i for i, fam in enumerate(FAMILIES)}

# family -> (dimension, rank) for the exceptional types
_EXCEPTIONAL_DIMS = {
    "G2": (14, 2),
    "F4": (52, 4),
    "E6": (78, 6),
    "E7": (133, 7),
    "E8": (248, 8),
}


def _check_classical_degree(family: str, degree: int) -> None:
    if degree <= 0:
        raise MalformedTypeError(f"{family} degree must be positive, got {degree}")
    if family == "SU" and degree < 2:
        raise MalformedTypeError(f"SU({degree}) is not canonical (need n >= 2)")
    if family == "Sp":
        if degree % 2:
            raise MalformedTypeError(f"Sp({degree}) is malformed (degree must be even)")
        if degree < 4:
            raise MalformedTypeError(f"Sp({degree}) is not canonical (need n >= 4)")
    if family == "SO" and degree < 7:
        raise MalformedTypeError(f"SO({degree}) is not canonical (need n >= 7)")


@dataclass(frozen=True, slots=True)
class SimpleType:
    """One canonical simple compact factor: a family plus a degree.

    The degree is the n of SU_n / Sp_n / SO_n and is 0 for the exceptional
    families.  Non-canonical values (SO_2..SO_6, Sp_2, SU_1, ...) are rejected
    here; use :func:`canonicalize` to resolve them.
    """

    family: str
    degree: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise MalformedTypeError(f"unknown family {self.family!r}")
        if self.family in _EXCEPTIONAL_DIMS:
            if self.degree:
                raise MalformedTypeError(f"{self.family} takes no degree")
        else:
            _check_classical_degree(self.family, self.degree)

    @property
    def is_classical(self) -> bool:
        return self.family in CLASSICAL_FAMILIES

    @property
    def dim(self) -> int:
        if self.family == "SU":
            return self.degree * self.degree - 1
        if self.family == "Sp":
            return self.degree * (self.degree + 1) // 2
        if self.family == "SO":
            return self.degree * (self.degree - 1) // 2
        return _EXCEPTIONAL_DIMS[self.family][0]

    @property
    def rank(self) -> int:
        if self.family == "SU":
            return self.degree - 1
        if self.family == "Sp":
            return self.degree // 2
        if self.family == "SO":
            return self.degree // 2
        return _EXCEPTIONAL_DIMS[self.family][1]

    @property
    def sort_key(self) -> tuple[int, int]:
        return (_FAMILY_ORDER[self.family], self.degree)

    def __str__(self) -> str:
        if self.family in _EXCEPTIONAL_DIMS:
            return self.family
        return f"{self.family}({self.degree})"

    def __repr__(self) -> str:
        return f"SimpleType({str(self)!r})"


@dataclass(frozen=True, slots=True)
class GroupType:
    """A compact connected Lie group up to isogeny: torus rank z plus the
    multiset of simple factors as (factor, multiplicity) pairs, normalised to
    canonical order so equal groups compare equal (``((s, 1), (s, 2))`` is
    ``((s, 3),)``)."""

    torus_rank: int = 0
    counts: tuple[tuple[SimpleType, int], ...] = ()

    def __post_init__(self):
        if self.torus_rank < 0:
            raise MalformedTypeError("torus rank must be nonnegative")
        # sort and merge neighbours: a dict would hash a SimpleType per pair
        pairs = self.counts
        out: list[tuple[SimpleType, int]] = []
        for s, k in sorted(pairs, key=lambda p: p[0].sort_key) if len(pairs) > 1 else pairs:
            if k < 1:
                raise MalformedTypeError(f"multiplicity of {s} must be positive, got {k}")
            if out and out[-1][0] == s:
                out[-1] = (s, out[-1][1] + k)
            else:
                out.append((s, k))
        object.__setattr__(self, "counts", tuple(out))

    # -- structure ---------------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        return self.torus_rank == 0 and not self.counts

    @property
    def is_torus(self) -> bool:
        return not self.counts

    @property
    def is_simple(self) -> bool:
        return self.torus_rank == 0 and len(self.counts) == 1 and self.counts[0][1] == 1

    @property
    def simple_factor(self) -> SimpleType:
        if not self.is_simple:
            raise MalformedTypeError(f"{self} is not simple")
        return self.counts[0][0]

    @property
    def semisimple_part(self) -> "GroupType":
        """The commutator subgroup G' (drop the central torus)."""
        return GroupType(0, self.counts)

    @property
    def dim(self) -> int:
        return self.torus_rank + sum(s.dim * k for s, k in self.counts)

    @property
    def rank(self) -> int:
        return self.torus_rank + sum(s.rank * k for s, k in self.counts)

    @property
    def sort_key(self) -> tuple:
        """Per-copy factor keys, then the torus rank: the order of tables."""
        return (tuple(key for s, k in self.counts for key in (s.sort_key,) * k),
                self.torus_rank)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "GroupType") -> "GroupType":
        return GroupType(self.torus_rank + other.torus_rank, self.counts + other.counts)

    def with_torus(self, extra: int) -> "GroupType":
        return GroupType(self.torus_rank + extra, self.counts)

    def drop_one(self, s: SimpleType) -> "GroupType":
        """Remove one copy of factor ``s``."""
        return self.replace_one(s, TRIVIAL)

    def replace_one(self, s: SimpleType, replacement: "GroupType") -> "GroupType":
        """Replace one copy of factor ``s`` by the factors of ``replacement``."""
        rest = tuple((t, k - (t == s)) for t, k in self.counts if k > 1 or t != s)
        return GroupType(self.torus_rank + replacement.torus_rank, rest + replacement.counts)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if self.is_trivial:
            return "1"
        parts = []
        for s, k in self.counts:
            parts.append(str(s) if k == 1 else f"{s}^{k}")
        if self.torus_rank == 1:
            parts.append("T")
        elif self.torus_rank > 1:
            parts.append(f"T^{self.torus_rank}")
        return " x ".join(parts)

    def __repr__(self) -> str:
        return f"GroupType({str(self)!r})"


TRIVIAL = GroupType()


def torus(k: int) -> GroupType:
    return GroupType(torus_rank=k)


def simple(family: str, degree: int = 0) -> GroupType:
    """The group with a single canonical simple factor."""
    return GroupType(0, ((SimpleType(family, degree), 1),))


def product(groups: Iterable[GroupType]) -> GroupType:
    out = TRIVIAL
    for g in groups:
        out = out * g
    return out


# -- canonicalization -------------------------------------------------------

# low-degree coincidences, resolved at construction time
_COINCIDENCES = {
    ("SU", 1): (0, ()),
    ("Sp", 2): (0, (("SU", 2),)),
    ("SO", 1): (0, ()),
    ("SO", 2): (1, ()),
    ("SO", 3): (0, (("SU", 2),)),
    ("SO", 4): (0, (("SU", 2), ("SU", 2))),
    ("SO", 5): (0, (("Sp", 4),)),
    ("SO", 6): (0, (("SU", 4),)),
}


@lru_cache(maxsize=None)
def canonicalize(family: str, degree: int = 0) -> GroupType:
    """Canonical GroupType of one raw factor, resolving low-rank coincidences.

    Accepts the parse ranges SU n>=1, Sp n>=2 even, SO n>=1, the exceptional
    family names, and the torus marker ("T", k).  Raises MalformedTypeError
    outside those ranges (zero/negative degree, odd Sp degree).
    """
    if family == "T":
        if degree < 0:
            raise MalformedTypeError("torus rank must be nonnegative")
        return GroupType(torus_rank=degree)
    if family in _EXCEPTIONAL_DIMS:
        return simple(family)
    if family not in CLASSICAL_FAMILIES:
        raise MalformedTypeError(f"unknown family {family!r}")
    if degree <= 0:
        raise MalformedTypeError(f"{family} degree must be positive, got {degree}")
    if family == "Sp" and degree % 2:
        raise MalformedTypeError(f"Sp({degree}) is malformed (degree must be even)")
    key = (family, degree)
    if key in _COINCIDENCES:
        z, raw = _COINCIDENCES[key]
        return GroupType(z, tuple((SimpleType(f, d), 1) for f, d in raw))
    return simple(family, degree)


# -- parsing ----------------------------------------------------------------

# the most simple factors one "^" power may build: parsing a power costs O(1)
# in its exponent, but witness chains and the oracle walk a node per copy and
# ``sort_key`` expands every copy, so SU(2)^99999999999999999999 is refused
MAX_POWER_FACTORS = 10**6

_TOKEN = re.compile(r"\s*([A-Za-z]+[0-9]*|[0-9]+|[()^])")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos == len(text):
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over:  group := "1" | term (" x " term)*
    term := atom ("^" INT)?;  atom := family "(" INT ")" | exceptional |
    "T" ("^" INT)?.  Family names are case-insensitive."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, literal: str) -> None:
        tok, pos = self.next()
        if tok != literal:
            raise ParseError(f"expected {literal!r}, found {tok!r}", pos)

    def parse_int(self) -> int:
        tok, pos = self.next()
        if tok is None or not tok.isdigit():
            raise ParseError(f"expected integer, found {tok!r}", pos)
        return int(tok)

    def parse_group(self) -> GroupType:
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

    def parse_term(self) -> GroupType:
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

    def parse_atom(self) -> tuple[GroupType, bool]:
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


def parse_group(text: str) -> GroupType:
    """Parse a group-spec string like "SU(5) x Sp(6)" or "SO(4)^2 x T^3"."""
    if not text.strip():
        raise ParseError("empty group spec", 0)
    return _Parser(text).parse_group()


# -- bounded enumeration ------------------------------------------------------

def iter_simple_types(max_dim: int | None = None,
                      max_degree: int | None = None) -> Iterator[SimpleType]:
    """All canonical simple types with dim <= max_dim and/or degree <= max_degree,
    in canonical order.  Exceptional types pass any degree bound."""
    if max_dim is None and max_degree is None:
        raise ValueError("need max_dim or max_degree")

    def admit(s: SimpleType) -> bool:
        return max_dim is None or s.dim <= max_dim

    for family, start, step in (("SU", 2, 1), ("Sp", 4, 2), ("SO", 7, 1)):
        n = start
        while True:
            if max_degree is not None and n > max_degree:
                break
            s = SimpleType(family, n)
            if max_dim is not None and s.dim > max_dim:
                break
            yield s
            n += step
    for family in _EXCEPTIONAL_DIMS:
        s = SimpleType(family)
        if admit(s):
            yield s


def iter_semisimple(max_dim: int) -> Iterator[tuple[GroupType, range]]:
    """Each semisimple part H of the groups with total dim <= max_dim, with
    the torus ranks z for which H x T^z is in range: 1..max_dim for the
    trivial part (the tori), 0..max_dim - dim H otherwise.

    Deterministic order: factor multisets in canonical order.
    """
    simples = list(iter_simple_types(max_dim=max_dim))

    def extend(counts: tuple[tuple[SimpleType, int], ...], budget: int, start: int):
        yield counts, budget
        for i in range(start, len(simples)):
            s = simples[i]
            if s.dim <= budget:
                same = counts and i == start  # one more copy of the last factor
                more = counts[:-1] + ((s, counts[-1][1] + 1),) if same else counts + ((s, 1),)
                yield from extend(more, budget - s.dim, i)

    for counts, budget in extend((), max_dim, 0):
        yield GroupType(0, counts), range(0 if counts else 1, budget + 1)


def iter_groups(max_dim: int) -> Iterator[GroupType]:
    """All nontrivial canonical groups with total dim <= max_dim, tori included.

    Deterministic order: semisimple parts as ``iter_semisimple`` yields them,
    then increasing torus rank.
    """
    for h, zs in iter_semisimple(max_dim):
        for z in zs:
            yield GroupType(z, h.counts)
