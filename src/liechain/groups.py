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
        return f"{self.family}({self.degree})" if self.degree else self.family

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
        # sort and merge neighbours (a dict would hash a SimpleType per
        # pair); a pair that needs no merge is kept, not copied
        pairs = self.counts
        out: list[tuple[SimpleType, int]] = []
        for pair in sorted(pairs, key=lambda p: p[0].sort_key) if len(pairs) > 1 else pairs:
            s, k = pair
            if k < 1:
                raise MalformedTypeError(f"multiplicity of {s} must be positive, got {k}")
            if out and out[-1][0] == s:
                out[-1] = (s, out[-1][1] + k)
            else:
                out.append(pair)
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
        return _canonical(0, self.counts)

    @property
    def dim(self) -> int:
        return self.torus_rank + sum([s.dim * k for s, k in self.counts])

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
        return _canonical(self.torus_rank + other.torus_rank, _merged(self.counts, other.counts))

    def with_torus(self, extra: int) -> "GroupType":
        """The same factors with ``extra`` more torus rank (fewer when
        negative)."""
        return _canonical(self.torus_rank + extra, self.counts)

    def drop_one(self, s: SimpleType) -> "GroupType":
        """Remove one copy of factor ``s``."""
        return self.replace_one(s, TRIVIAL)

    def replace_one(self, s: SimpleType, replacement: "GroupType") -> "GroupType":
        """Replace one copy of factor ``s`` by the factors of ``replacement``."""
        rest = tuple(pair if pair[0] != s else (s, pair[1] - 1)
                     for pair in self.counts if pair[1] > 1 or pair[0] != s)
        return _canonical(self.torus_rank + replacement.torus_rank,
                          _merged(rest, replacement.counts))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        parts = [str(s) if k == 1 else f"{s}^{k}" for s, k in self.counts]
        if self.torus_rank:
            parts.append("T" if self.torus_rank == 1 else f"T^{self.torus_rank}")
        return " x ".join(parts) or "1"

    def __repr__(self) -> str:
        return f"GroupType({str(self)!r})"


def _canonical(torus_rank: int, counts: tuple[tuple[SimpleType, int], ...]) -> GroupType:
    """A GroupType of pairs the caller knows are canonical (the pairs of an
    existing group, or built in canonical order), without the sort and
    merge of ``__post_init__``."""
    if torus_rank < 0:
        raise MalformedTypeError("torus rank must be nonnegative")
    g = object.__new__(GroupType)
    object.__setattr__(g, "torus_rank", torus_rank)
    object.__setattr__(g, "counts", counts)
    return g


def _merged(a: tuple[tuple[SimpleType, int], ...],
            b: tuple[tuple[SimpleType, int], ...]) -> tuple[tuple[SimpleType, int], ...]:
    """The canonical pairs ``a`` and ``b`` merged in one linear pass, a
    factor in both adding its counts: the pairs of their product."""
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        key, other = a[i][0].sort_key, b[j][0].sort_key
        if key == other:
            out.append((a[i][0], a[i][1] + b[j][1]))
            i, j = i + 1, j + 1
        elif key < other:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return (*out, *a[i:], *b[j:])


TRIVIAL = GroupType()


def torus(k: int) -> GroupType:
    return _canonical(k, ())


def simple(family: str, degree: int = 0) -> GroupType:
    """The group with a single canonical simple factor."""
    return _canonical(0, ((SimpleType(family, degree), 1),))


def product(groups: Iterable[GroupType]) -> GroupType:
    out = TRIVIAL
    for g in groups:
        out = out * g
    return out


# -- canonicalization -------------------------------------------------------

# low-degree coincidences, resolved at construction time: (z, canonical factors)
_COINCIDENCES = {
    ("SU", 1): (0, ()),
    ("Sp", 2): (0, (("SU", 2, 1),)),
    ("SO", 1): (0, ()),
    ("SO", 2): (1, ()),
    ("SO", 3): (0, (("SU", 2, 1),)),
    ("SO", 4): (0, (("SU", 2, 2),)),
    ("SO", 5): (0, (("Sp", 4, 1),)),
    ("SO", 6): (0, (("SU", 4, 1),)),
}


@lru_cache(maxsize=None)
def canonicalize(family: str, degree: int = 0) -> GroupType:
    """Canonical GroupType of one raw factor, resolving low-rank coincidences.

    Accepts the parse ranges SU n>=1, Sp n>=2 even, SO n>=1, the exceptional
    family names, and the torus marker ("T", k).  Raises MalformedTypeError
    outside those ranges (zero/negative degree, odd Sp degree), through
    ``SimpleType``: every coincidence lies inside them."""
    if family == "T":
        return torus(degree)
    if family in _EXCEPTIONAL_DIMS:
        return simple(family)
    if (family, degree) in _COINCIDENCES:
        z, raw = _COINCIDENCES[family, degree]
        return _canonical(z, tuple((SimpleType(f, d), k) for f, d, k in raw))
    return simple(family, degree)


# -- parsing ----------------------------------------------------------------

# the most simple factors one "^" power may build: parsing a power costs O(1)
# in its exponent, but witness chains and the oracle walk a node per copy and
# ``sort_key`` expands every copy, so SU(2)^99999999999999999999 is refused
MAX_POWER_FACTORS = 10**6

_TOKEN = re.compile(r"\s*([A-Za-z]+[0-9]*|[0-9]+|[()^])")
_CLASSICAL_NAMES = {"su": "SU", "sp": "Sp", "so": "SO"}


def _token_starts(text: str) -> list[int]:
    """Where each token of ``text`` starts.  Raises at the first character
    that starts no token and is not whitespace.  Only a spec that fails to
    parse needs positions."""
    starts, pos = [], 0
    while m := _TOKEN.match(text, pos):
        starts.append(m.start(1))
        pos = m.end()
    rest = text[pos:]
    if rest.strip():
        pos = len(text) - len(rest.lstrip())
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    return starts


def _error(text: str, index: int, message: str) -> ParseError:
    """``message`` at token ``index``, or at the end of the text past the
    last token."""
    starts = _token_starts(text)
    return ParseError(message, starts[index] if index < len(starts) else len(text))


def _integer(text: str, tokens: list, index: int) -> int:
    tok = tokens[index]
    if tok is None or not tok.isdigit():
        raise _error(text, index, f"expected integer, found {tok!r}")
    return int(tok)


def parse_group(text: str) -> GroupType:
    """Parse a group-spec string like "SU(5) x Sp(6)" or "SO(4)^2 x T^3".

    Grammar:  group := "1" | term ("x" term)*;  term := atom ("^" INT)?;
    atom := family "(" INT ")" | exceptional | "T" ("^" INT)?.  Family
    names and the separator are case-insensitive.  The line is tokenized
    at once, the terms add up their torus ranks and factor pairs, and the
    group is built from them once."""
    chars = len("".join(text.split()))
    if not chars:
        raise ParseError("empty group spec", 0)
    tokens = _TOKEN.findall(text)
    if sum(map(len, tokens)) != chars:
        _token_starts(text)  # raises at the character no token covers
    tokens.append(None)
    if tokens[0] == "1":
        if tokens[1] is not None:
            raise _error(text, 1, "trivial group '1' cannot be combined")
        return TRIVIAL
    z, pairs, i = 0, [], 0
    while True:
        tok = tokens[i]
        if tok is None:
            raise _error(text, i, "unexpected end of input")
        name, had_power = tok.lower(), False
        if name in _CLASSICAL_NAMES:
            if tokens[i + 1] != "(":
                raise _error(text, i + 1, f"expected '(', found {tokens[i + 1]!r}")
            degree = _integer(text, tokens, i + 2)
            if tokens[i + 3] != ")":
                raise _error(text, i + 3, f"expected ')', found {tokens[i + 3]!r}")
            try:
                atom = canonicalize(_CLASSICAL_NAMES[name], degree)
            except MalformedTypeError as exc:
                raise _error(text, i, str(exc)) from exc
            atom_z, atom_pairs, i = atom.torus_rank, atom.counts, i + 4
        elif name.upper() in _EXCEPTIONAL_DIMS:
            atom_z, atom_pairs, i = 0, canonicalize(name.upper()).counts, i + 1
        elif name == "t":
            atom_z, atom_pairs, i = 1, (), i + 1
            if tokens[i] == "^":
                atom_z, had_power = _integer(text, tokens, i + 1), True
                if atom_z < 1:
                    raise _error(text, i, "torus rank must be positive")
                i += 2
        else:
            raise _error(text, i, f"unknown atom {tok!r}")
        if tokens[i] == "^":
            if had_power:
                raise _error(text, i, "repeated '^' exponent")
            count = _integer(text, tokens, i + 1)
            if count < 1:
                raise _error(text, i, "exponent must be positive")
            if sum(k for _, k in atom_pairs) * count > MAX_POWER_FACTORS:
                raise _error(text, i, f"power has more than {MAX_POWER_FACTORS} simple factors")
            atom_z *= count
            atom_pairs = [(s, k * count) for s, k in atom_pairs]
            i += 2
        z += atom_z
        pairs += atom_pairs
        tok = tokens[i]
        if tok is None:
            return GroupType(z, tuple(pairs))
        if tok.lower() != "x":
            raise _error(text, i, f"expected 'x' separator, found {tok!r}")
        i += 1


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
        yield _canonical(0, counts), range(0 if counts else 1, budget + 1)


def iter_groups(max_dim: int) -> Iterator[GroupType]:
    """All nontrivial canonical groups with total dim <= max_dim, tori included.

    Deterministic order: semisimple parts as ``iter_semisimple`` yields them,
    then increasing torus rank.
    """
    for h, zs in iter_semisimple(max_dim):
        for z in zs:
            yield h.with_torus(z)
