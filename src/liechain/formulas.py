"""Closed forms for length, depth and chain difference, plus the
dimension/length inequalities, evaluated over exact radical arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import MalformedTypeError
from .groups import GroupType, SimpleType, canonicalize, simple, torus
from .oracle import oracle_depth
from .radicals import ALPHA, BETA, BETA_INV, QuadExpr
from .subgroups import is_curated

EXCEPTIONAL_LENGTH = {"G2": 5, "F4": 11, "E6": 13, "E7": 17, "E8": 20}


@dataclass(frozen=True, slots=True)
class BoundsOrExact:
    """An exact value or an inclusive integer interval."""

    lower: int
    upper: int

    def __post_init__(self):
        if not 0 <= self.lower <= self.upper:
            raise ValueError(f"bad bounds [{self.lower}, {self.upper}]")

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
        return canonicalize("SU", s.degree - 1) * torus(1)
    if s.family == "Sp":
        return canonicalize("Sp", 2) * canonicalize("Sp", s.degree - 2)
    if s.family == "SO":
        return canonicalize("SO", 4) * canonicalize("SO", s.degree - 4)
    entry = {
        "G2": simple("SU", 3),
        "F4": simple("SO", 9),
        "E6": simple("SO", 10) * torus(1),
        "E7": simple("SO", 12) * simple("SU", 2),
        "E8": simple("SO", 16),
    }
    return entry[s.family]


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
    to the exact brute-force value whenever ``g`` lies in the curated set."""
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


def chain_difference(g: GroupType, refine: bool = False) -> BoundsOrExact:
    """Length minus depth, with interval arithmetic when depth is inexact."""
    total = length(g)
    d = depth(g, refine=refine)
    return BoundsOrExact(total - d.upper, total - d.lower)


def is_length_eq_depth(g: GroupType) -> bool:
    """True exactly for tori and for SU_2 times a torus."""
    return not g.counts or g.counts == ((SimpleType("SU", 2), 1),)


_CD_ONE_FACTOR_SETS = (
    ((SimpleType("SU", 3), 1),),
    ((SimpleType("SU", 2), 2),),
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


# -- inequality checks ---------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Check:
    """One verified inequality/equality, with printable sides."""

    claim: str
    inputs: dict
    lhs: str
    rhs: str
    passed: bool

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "inputs": self.inputs,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
        }

    def __str__(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.claim}: {self.lhs} vs {self.rhs} {self.inputs}"


def check_dimlen(g: GroupType) -> list[Check]:
    """dim G - l(G) bounds dim G' on both sides; for simple groups also the
    2/3 ratio bound with equality only at SU_2."""
    total = length(g)
    delta = g.dim - total
    dim_ss = g.semisimple_part.dim
    out = [
        Check(
            "length equals dimension only for tori",
            {"group": str(g)},
            f"l={total}, dim={g.dim}",
            f"torus={g.is_torus}",
            (total == g.dim) == g.is_torus,
        ),
        Check(
            "dimension deficit bounds the semisimple dimension",
            {"group": str(g), "delta": delta},
            f"{delta} <= {dim_ss}",
            f"{dim_ss} <= {3 * delta}",
            delta <= dim_ss <= 3 * delta,
        ),
    ]
    if g.is_simple:
        s = g.simple_factor
        boundary = s == SimpleType("SU", 2)
        out.append(
            Check(
                "simple length at most two thirds of dimension",
                {"group": str(g)},
                f"3*l = {3 * total}",
                f"2*dim = {2 * g.dim}",
                3 * total <= 2 * g.dim and (3 * total == 2 * g.dim) == boundary,
            )
        )
    return out


def sqrt_lower_bound(g: GroupType) -> QuadExpr:
    """The lower-bound expression beta * (sqrt(dim) - alpha)."""
    return BETA * (QuadExpr.sqrt(g.dim) - ALPHA)


# The radical checks below depend only on a few integers of the group, and a
# sweep over many groups meets each combination many times; each verdict is
# decided once per distinct input.  Bounded so a long-lived process stays small.
_VERDICT_CACHE_SIZE = 4096


@lru_cache(maxsize=_VERDICT_CACHE_SIZE)
def _sqrt_verdict(total: int, dim: int, xi_is_alpha: bool) -> tuple[str, bool]:
    """beta*(sqrt(dim) - xi) rendered to 4 places, with xi = alpha or 1, and
    whether ``total`` reaches it."""
    bound = BETA * (QuadExpr.sqrt(dim) - (ALPHA if xi_is_alpha else 1))
    return bound.decimal(4), QuadExpr.rational(total) >= bound


@lru_cache(maxsize=_VERDICT_CACHE_SIZE)
def _quad_cd_verdict(cd_low: int, dim_ss: int) -> tuple[str, bool]:
    """(beta^-1*(2cd+2) + alpha)^2 rendered to 4 places, and whether
    ``dim_ss`` stays within it."""
    root = BETA_INV * (2 * cd_low + 2) + ALPHA
    quad = root * root
    return quad.decimal(4), QuadExpr.rational(dim_ss) <= quad


def check_sqrt_lower_bound(g: GroupType) -> list[Check]:
    total = length(g)
    rendered, ok = _sqrt_verdict(total, g.dim, True)
    out = [
        Check(
            "length above the square-root dimension bound",
            {"group": str(g), "dim": g.dim},
            f"l = {total}",
            f"beta*(sqrt(dim)-alpha) = {rendered}",
            ok,
        )
    ]
    if g.is_simple:
        s = g.simple_factor
        xi_is_alpha = s.family in ("E6", "E7", "E8")
        xi = ALPHA if xi_is_alpha else QuadExpr.rational(1)
        rendered, ok = _sqrt_verdict(total, g.dim, xi_is_alpha)
        out.append(
            Check(
                "simple length above the family-specific square-root bound",
                {"group": str(g), "xi": xi.decimal(4)},
                f"l = {total}",
                f"beta*(sqrt(dim)-xi) = {rendered}",
                ok,
            )
        )
    return out


def lendim_formula(s: SimpleType) -> QuadExpr:
    """The length of a classical simple group written as an exact radical
    function of its dimension d; agrees with ``length`` exactly."""
    if not s.is_classical:
        raise MalformedTypeError(f"classical type required, got {s}")
    d = s.dim
    if s.family == "SU":
        return QuadExpr.sqrt(d + 1, 2) - 2
    if s.family == "Sp":
        return QuadExpr.sqrt(Fraction(d) + Fraction(1, 8), 3) * QuadExpr.sqrt(Fraction(1, 2)) - Fraction(7, 4)
    k = s.degree % 4
    return QuadExpr.sqrt(Fraction(d) + Fraction(1, 8), 5) * QuadExpr.sqrt(Fraction(1, 8)) - Fraction(2 * k + 3, 8)


def elem_inequalities(x, y) -> tuple[Optional[bool], Optional[bool], Optional[bool]]:
    """The three elementary square-root inequalities, each evaluated exactly
    when its precondition holds (None otherwise):
    (i)  x >= 1:       1 + beta*sqrt(x) >= beta*sqrt(x+1)
    (ii) x, y >= 3:    sqrt(x) + sqrt(y) >= sqrt(x+y) + 1
    (iii) x, y >= 78:  sqrt(x) + sqrt(y) >= sqrt(x+y) + alpha
    """
    x = Fraction(x)
    y = Fraction(y)
    first = second = third = None
    if x >= 1:
        first = QuadExpr.rational(1) + BETA * QuadExpr.sqrt(x) >= BETA * QuadExpr.sqrt(x + 1)
    if x >= 3 and y >= 3:
        second = QuadExpr.sqrt(x) + QuadExpr.sqrt(y) >= QuadExpr.sqrt(x + y) + 1
    if x >= 78 and y >= 78:
        third = QuadExpr.sqrt(x) + QuadExpr.sqrt(y) >= QuadExpr.sqrt(x + y) + ALPHA
    return first, second, third


def _smalll_sums(ns: Sequence[int]) -> tuple[int, int, int, int]:
    """(S, Q, R, k) = (sum n_i, sum n_i(n_i-1), sum_{i>=2} n_i, k) of a
    valid tuple for ``smalll_deficit``."""
    ns = tuple(int(n) for n in ns)
    k = len(ns)
    if k < 2:
        raise MalformedTypeError("need at least two entries")
    if any(n < 7 for n in ns) or any(n > ns[0] for n in ns):
        raise MalformedTypeError(f"tuple must satisfy n_1 >= n_i >= 7, got {ns}")
    total = sum(ns)
    return total, sum(n * (n - 1) for n in ns), total - ns[0], k


def smalll_deficit(ns: Sequence[int]) -> QuadExpr:
    """Deficit of the orthogonal-product length inequality for a tuple
    (n_1, ..., n_k) with k >= 2 and n_1 >= n_i >= 7: the exact value of

        (5/4) sum n_i - (7/4) k - (5/4) sqrt(sum n_i(n_i-1)) - sqrt(sum_{i>=2} n_i)

    claimed nonnegative except exactly at (n_1, k) = (7, 2)."""
    total, q, r, k = _smalll_sums(ns)
    value = QuadExpr.rational(Fraction(5 * total, 4) - Fraction(7 * k, 4))
    value -= QuadExpr.sqrt(q, Fraction(5, 4))
    value -= QuadExpr.sqrt(r)
    return value


def smalll_deficit_negative(ns: Sequence[int]) -> bool:
    """Whether ``smalll_deficit(ns)`` is negative, decided in integers.

    With S = sum n_i, Q = sum n_i(n_i-1) and R = sum_{i>=2} n_i, four times
    the deficit is A - 5 sqrt(Q) - 4 sqrt(R) with A = 5S - 7k >= 28k > 0,
    as every n_i >= 7.  Both sides of A < 5 sqrt(Q) + 4 sqrt(R) are then
    nonnegative, so squaring keeps the order: it holds iff
    B = A^2 - 25Q - 16R < 40 sqrt(QR), that is iff B < 0 or B^2 < 1600 QR."""
    total, q, r, k = _smalll_sums(ns)
    a = 5 * total - 7 * k
    b = a * a - 25 * q - 16 * r
    return b < 0 or b * b < 1600 * q * r


# slack constants in the length vs chain-difference bound for simple groups;
# everything not listed has slack 0.  (The doubled-depth margin 2*depth - length
# equals 1 for G2, so it sits with Sp_4 and SO_7.)
_TWICE_SLACK = {
    SimpleType("SU", 2): 2,
    SimpleType("SU", 3): 2,
    SimpleType("SU", 4): 2,
    SimpleType("Sp", 4): 1,
    SimpleType("SO", 7): 1,
    SimpleType("G2"): 1,
}


def check_lcd(g: GroupType) -> list[Check]:
    """Length of G' against the chain difference: l(G') <= 2 cd(G) + 2, the
    induced quadratic dimension bound, and the per-factor refinements.  The
    chain difference is refined to the brute-force value on the curated set."""
    cd = chain_difference(g, refine=True)
    cd_low = cd.lower
    h = g.semisimple_part
    l_ss = length(h)
    dim_ss = h.dim
    out = [
        Check(
            "semisimple length at most twice the chain difference plus two",
            {"group": str(g), "cd": str(cd)},
            f"l(G') = {l_ss}",
            f"2*cd+2 = {2 * cd_low + 2}",
            l_ss <= 2 * cd_low + 2,
        )
    ]
    rendered, ok = _quad_cd_verdict(cd_low, dim_ss)
    out.append(
        Check(
            "semisimple dimension within the quadratic chain-difference bound",
            {"group": str(g), "cd": str(cd)},
            f"dim G' = {dim_ss}",
            f"(beta^-1*(2cd+2)+alpha)^2 = {rendered}",
            ok,
        )
    )
    if g.is_simple:
        s = g.simple_factor
        slack = _TWICE_SLACK.get(s, 0)
        out.append(
            Check(
                "simple length at most twice chain difference plus slack",
                {"group": str(g), "slack": slack},
                f"l = {l_ss}",
                f"2*cd+{slack} = {2 * cd_low + slack}",
                l_ss <= 2 * cd_low + slack,
            )
        )
    if len(g.counts) == 1 and not g.torus_rank and g.counts[0][1] >= 2:
        s, k = g.counts[0]
        if s == SimpleType("SU", 2):
            ok = l_ss == 2 * cd_low + 2
            rhs = f"2*cd+2 = {2 * cd_low + 2} (equality)"
        else:
            ok = l_ss <= 2 * cd_low
            rhs = f"2*cd = {2 * cd_low}"
        out.append(
            Check(
                "homogeneous power length against doubled chain difference",
                {"group": str(g), "k": k},
                f"l = {l_ss}",
                rhs,
                ok,
            )
        )
    return out
