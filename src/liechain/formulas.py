"""Closed forms for length, depth and chain difference, in integer
arithmetic: every CLI query reads its answer from these.  The checks of the
paper's inequalities, the only code that builds radical values, live in
``suites``."""

from __future__ import annotations

from functools import lru_cache

from .errors import Frozen, MalformedTypeError
from .groups import GroupType, SimpleType, canonicalize, simple, torus
from .oracle import oracle_depth
from .subgroups import is_curated

EXCEPTIONAL_LENGTH = {"G2": 5, "F4": 11, "E6": 13, "E7": 17, "E8": 20}


class BoundsOrExact(Frozen):
    """An exact value or an inclusive integer interval."""

    __slots__ = ("lower", "upper")
    lower: int
    upper: int

    def __init__(self, lower: int, upper: int):
        if not 0 <= lower <= upper:
            raise ValueError(f"bad bounds [{lower}, {upper}]")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.lower, self.upper) == (other.lower, other.upper)
        return NotImplemented

    def __hash__(self):
        return hash((self.lower, self.upper))

    @classmethod
    def exact(cls, value: int) -> "BoundsOrExact":
        return cls(value, value)

    @property
    def is_exact(self) -> bool:
        return self.lower == self.upper

    @property
    def exact_value(self) -> int:
        if not self.is_exact:
            raise ValueError(f"{self} is not exact")
        return self.lower

    def __contains__(self, value: int) -> bool:
        return self.lower <= value <= self.upper

    def to_json(self):
        if self.is_exact:
            return self.lower
        return {"lower": self.lower, "upper": self.upper}

    def __str__(self) -> str:
        return str(self.lower) if self.is_exact else f"[{self.lower}, {self.upper}]"


def f_classical(family: str, n: int) -> int:
    """Length of the classical group of family SU/Sp/SO and degree n."""
    if family == "SU":
        if n < 2:
            raise MalformedTypeError(f"SU({n}) out of range")
        return 2 * n - 2
    if family == "Sp":
        if n < 4 or n % 2:
            raise MalformedTypeError(f"Sp({n}) out of range")
        return 3 * n // 2 - 1
    if family == "SO":
        if n < 7:
            raise MalformedTypeError(f"SO({n}) out of range")
        return n + n // 4 - 1
    raise MalformedTypeError(f"not a classical family: {family!r}")


def length_simple(s: SimpleType) -> int:
    if s.is_classical:
        return f_classical(s.family, s.degree)
    return EXCEPTIONAL_LENGTH[s.family]


def length(g: GroupType) -> int:
    """Longest unrefinable chain length: torus rank plus factor lengths."""
    return g.torus_rank + sum(length_simple(s) * k for s, k in g.counts)


def length_complex_semisimple(g: GroupType) -> int:
    """Length of the complexification of a semisimple compact group:
    dim B + rank, with dim B = (dim + rank) / 2."""
    if g.torus_rank:
        raise ValueError(f"nonzero torus rank in {g}")
    return (g.dim + g.rank) // 2 + g.rank


def max_step_simple(s: SimpleType) -> GroupType:
    """The maximal subgroup a longest chain of ``s`` steps to; each choice
    satisfies l(child) = l(s) - 1."""
    if s.family == "SU":
        return canonicalize("SU", s.degree - 1).with_torus(1)
    if s.family == "Sp":
        return canonicalize("Sp", 2) * canonicalize("Sp", s.degree - 2)
    if s.family == "SO":
        return canonicalize("SO", 4) * canonicalize("SO", s.degree - 4)
    if s.family == "G2":
        return canonicalize("SU", 3)
    if s.family == "F4":
        return canonicalize("SO", 9)
    if s.family == "E6":
        return canonicalize("SO", 10).with_torus(1)
    if s.family == "E7":
        return canonicalize("SO", 12) * canonicalize("SU", 2)
    return canonicalize("SO", 16)  # E8


def min_step_simple(s: SimpleType) -> GroupType:
    """The maximal subgroup a shortest chain of ``s`` steps to: one simple
    factor, or the circle for SU_2, of depth one less than ``s``."""
    family, n = s.family, s.degree
    if family == "SU":
        if n == 2:
            return torus(1)
        if n == 7:
            return simple("SO", 7)
        # SO_3 = SU_2 and SO_5 = Sp_4 for the small odd degrees
        return canonicalize("Sp" if n % 2 == 0 else "SO", n)
    if family == "SO":
        if n == 7:
            return simple("G2")
        if n == 8:
            return simple("SU", 3)
        if n % 2 == 0:
            return simple("SO", n - 1)
    if family == "E6":
        return simple("F4")
    return simple("SU", 2)  # Sp_n, SO_odd >= 9, G2, F4, E7, E8


@lru_cache(maxsize=None)
def depth_simple(s: SimpleType) -> int:
    """Shortest unrefinable chain length of a simple group: one more than
    the depth of its ``min_step_simple``."""
    return 1 + depth(min_step_simple(s)).exact_value


def complex_depth_simple(s: SimpleType) -> int:
    """Depth of the complexified simple group, kept as reference data; the
    compact depth is always one less."""
    if s.family == "SU":
        return {2: 3, 3: 4, 7: 6}.get(s.degree, 5)
    if s.family == "Sp":
        return 4
    if s.family == "SO":
        return 5 if (s.degree == 7 or s.degree % 2 == 0) else 4
    return {"G2": 4, "F4": 4, "E6": 5, "E7": 4, "E8": 4}[s.family]


def depth(g: GroupType, refine: bool = False) -> BoundsOrExact:
    """Depth of ``g``: exact for tori and homogeneous S^k (times torus),
    interval bounds otherwise.  With ``refine=True`` the interval is upgraded
    to the exact brute-force value whenever ``g`` lies in the curated set;
    the suites' per-group checks and ``chains.min_chain`` take exactness
    from this rule."""
    z, counts = g.torus_rank, g.counts
    if not counts:
        return BoundsOrExact.exact(z)
    if len(counts) == 1:
        s, k = counts[0]
        return BoundsOrExact.exact(z + depth_simple(s) + k - 1)
    lower = z + sum(k + 1 for _, k in counts)
    upper = z + sum(k + depth_simple(s) - 1 for s, k in counts)
    if refine and is_curated(g):
        return BoundsOrExact.exact(oracle_depth(g))
    return BoundsOrExact(lower, upper)


@lru_cache(maxsize=None)
def _min_path(s: SimpleType) -> frozenset[SimpleType]:
    """The simple types a shortest chain of ``s`` passes through, from ``s``
    down to SU_2: depth_simple(s) - 1 of them."""
    below = min_step_simple(s).counts
    return _min_path(below[0][0]) | {s} if below else frozenset((s,))


def merging_depth(g: GroupType) -> int:
    """The length of the merging chain of ``g``, a sound upper bound on its
    depth: each S^k collapses diagonally, then, by decreasing
    ``depth_simple``, each factor takes its ``min_step_simple`` step and
    merges diagonally with a factor it meets, down to SU_2 > T and the torus
    drops.  With U the union of the factors' ``_min_path``s, that is
    z + sum(k - 1) + (|U| - 1) + (t - 1) + 2 maximal steps for t distinct
    factors.  Exact off mixed products; ``depth`` keeps the looser interval
    the CLI prints until the benchmark's pinned outputs are revised."""
    return g.torus_rank + sum(k for _, k in g.counts) + len(
        frozenset().union(*[_min_path(s) for s, _ in g.counts]))


def chain_difference(g: GroupType, refine: bool = False) -> BoundsOrExact:
    """Length minus depth, with interval arithmetic when depth is inexact."""
    total = length(g)
    d = depth(g, refine=refine)
    return BoundsOrExact(total - d.upper, total - d.lower)


_SU2 = SimpleType("SU", 2)


def is_length_eq_depth(g: GroupType) -> bool:
    """True exactly for tori and for SU_2 times a torus."""
    return not g.counts or g.counts == ((_SU2, 1),)


_CD_ONE_FACTOR_SETS = (
    ((SimpleType("SU", 3), 1),),
    ((_SU2, 2),),
)


def is_cd_one(g: GroupType) -> bool:
    """True exactly for chain difference one: commutator subgroup SU_3 or
    SU_2^2, times any torus.

    The published list also names SU_3 x SU_2, but that group has chain
    difference 2: SU_3 x SU_2 > SO_3 x SU_2 > diag SU_2 > T > 1 is an
    unrefinable chain of length 4 against a length of 6, each step certified
    maximal by an irreducible isotropy module (tests/test_cd_certificate.py).
    The ``cd`` suite keeps the published list as its reference data.
    """
    return g.counts in _CD_ONE_FACTOR_SETS
