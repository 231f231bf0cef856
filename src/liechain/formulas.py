"""Closed forms for length, depth and chain difference, plus the
dimension/length inequalities, evaluated over exact radical arithmetic.

The few functions that build radical values bind the names of ``radicals``
(and of ``fractions``) on their first call, so a query that asks for a
length or a depth compiles neither."""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .errors import Frozen, MalformedTypeError
from .groups import GroupType, SimpleType, canonicalize, simple, torus
from .oracle import oracle_depth
from .subgroups import is_curated

if TYPE_CHECKING:
    from fractions import Fraction

    from .radicals import ALPHA, BETA, BETA_ALPHA, BETA_INV, QuadExpr
else:
    Fraction = ALPHA = BETA = BETA_ALPHA = BETA_INV = QuadExpr = None


def _bind_radicals() -> None:
    """Bind the radical names above, once per process.  ``QuadExpr`` is
    bound last, so a thread that sees it bound sees them all."""
    global Fraction, ALPHA, BETA, BETA_ALPHA, BETA_INV, QuadExpr
    if QuadExpr is None:
        from fractions import Fraction

        from .radicals import ALPHA, BETA, BETA_ALPHA, BETA_INV, QuadExpr

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


# -- inequality checks ---------------------------------------------------------

class Check(NamedTuple):
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


def _lone_pair(z: int, counts: tuple) -> Optional[tuple[SimpleType, int]]:
    """The one (factor, multiplicity) pair of S^k, or None for any other
    group, given its torus rank and pairs."""
    return counts[0] if not z and len(counts) == 1 else None


def dimlen_verdicts(z: int, counts: tuple, l_ss: int, dim_ss: int) -> tuple[bool, ...]:
    """Whether each check of ``check_dimlen`` passes at G = H x T^z, in its
    order, from the pairs, length and dimension of H; l(G) and dim G are
    l(H) + z and dim H + z."""
    total, dim = l_ss + z, dim_ss + z
    delta = dim - total
    out = ((total == dim) == (not counts), delta <= dim_ss <= 3 * delta)
    lone = _lone_pair(z, counts)
    if lone is not None and lone[1] == 1:
        boundary = lone[0] == _SU2
        out += (3 * total <= 2 * dim and (3 * total == 2 * dim) == boundary,)
    return out


def check_dimlen(g: GroupType) -> list[Check]:
    """dim G - l(G) bounds dim G' on both sides; for simple groups also the
    2/3 ratio bound with equality only at SU_2."""
    total = length(g)
    delta = g.dim - total
    dim_ss = g.semisimple_part.dim
    z = g.torus_rank
    ok = dimlen_verdicts(z, g.counts, total - z, dim_ss)
    out = [
        Check(
            "length equals dimension only for tori",
            {"group": str(g)},
            f"l={total}, dim={g.dim}",
            f"torus={g.is_torus}",
            ok[0],
        ),
        Check(
            "dimension deficit bounds the semisimple dimension",
            {"group": str(g), "delta": delta},
            f"{delta} <= {dim_ss}",
            f"{dim_ss} <= {3 * delta}",
            ok[1],
        ),
    ]
    if g.is_simple:
        out.append(
            Check(
                "simple length at most two thirds of dimension",
                {"group": str(g)},
                f"3*l = {3 * total}",
                f"2*dim = {2 * g.dim}",
                ok[2],
            )
        )
    return out


# The radical checks below depend only on a few integers of the group, and a
# sweep over many groups meets each combination many times.  Each verdict is
# an integer comparison with an exact integer threshold, computed once per
# distinct input: l >= beta (sqrt(dim) - xi) iff l >= ceil(beta (sqrt(dim) - xi))
# for an integer l, and dim <= (beta^-1 (2cd + 2) + alpha)^2 iff dim is at
# most its floor.  A threshold is computed in integers: ``isqrt`` brackets
# the bound between two neighbouring candidates and one exact comparison of
# squares picks between them, so a rational bound, such as
# beta (sqrt(248) - alpha) = 20 at E8, is met with equality.  A bound is
# built as a ``QuadExpr`` only to render a failing Check.  Bounded so a
# long-lived process stays small.
_VERDICT_CACHE_SIZE = 4096

# the simple families whose square-root bound subtracts alpha instead of 1
_XI_ALPHA_FAMILIES = ("E6", "E7", "E8")


def _sqrt_bound(dim: int, xi_is_alpha: bool) -> QuadExpr:
    """beta * (sqrt(dim) - xi), with xi = alpha or 1, built as
    (5/4) sqrt(2 dim) - beta xi: the bound a failing Check renders."""
    _bind_radicals()
    return QuadExpr.sqrt(2 * dim, Fraction(5, 4)) - (BETA_ALPHA if xi_is_alpha else BETA)


def _le_sqrt(v: int, w: int, n: int) -> bool:
    """Whether v <= w sqrt(n), exactly, for integers v, w and n >= 0."""
    if w >= 0:
        return v <= 0 or v * v <= w * w * n
    return v <= 0 and v * v >= w * w * n


@lru_cache(maxsize=_VERDICT_CACHE_SIZE)
def _sqrt_threshold(dim: int, xi_is_alpha: bool) -> int:
    """The least length that meets ``_sqrt_bound(dim, xi_is_alpha)``.

    Four times the bound is sqrt(b) - sqrt(a) - c with b = 50 dim and
    (a, c) = (12400, -80) for xi = alpha (4 beta alpha = 20 sqrt(31) - 80)
    or (50, 0) for xi = 1 (4 beta = sqrt(50)).  It lies strictly within 1 of
    d = isqrt(b) - isqrt(a) - c, so its ceiling over 4 is t = ceil((d - 1)/4)
    or t + 1: t when p + sqrt(a) >= sqrt(b) for p = 4t + c, which holds iff
    p + sqrt(a) >= 0 and, squared, b - a - p^2 <= 2p sqrt(a)."""
    a, c = (12400, -80) if xi_is_alpha else (50, 0)
    b = 50 * dim
    t = (isqrt(b) - isqrt(a) - c + 2) // 4
    p = 4 * t + c
    meets = (p >= 0 or p * p <= a) and _le_sqrt(b - a - p * p, 2 * p, a)
    return t if meets else t + 1


def _quad_cd_bound(cd_low: int) -> QuadExpr:
    """(beta^-1 * (2cd + 2) + alpha)^2: the bound a failing Check renders."""
    _bind_radicals()
    root = BETA_INV * (2 * cd_low + 2) + ALPHA
    return root * root


@lru_cache(maxsize=_VERDICT_CACHE_SIZE)
def _quad_cd_limit(cd_low: int) -> int:
    """The largest dimension within ``_quad_cd_bound(cd_low)``.

    With u = 4cd - 36, 25 times the bound is e + w sqrt(31) for
    e = 2u^2 + 6200 and w = 40u (five times its root is
    u sqrt(2) + 10 sqrt(62)).  w sqrt(31) lies in [r, r + 1] for
    r = isqrt(31 w^2) when w >= 0, else for r = -isqrt(31 w^2) - 1, so the
    floor of the bound is m = (e + r + 1) // 25 or m - 1: m when
    25m - e <= w sqrt(31)."""
    u = 4 * cd_low - 36
    e, w = 2 * u * u + 6200, 40 * u
    r = isqrt(31 * w * w) if w >= 0 else -isqrt(31 * w * w) - 1
    m = (e + r + 1) // 25
    return m if _le_sqrt(25 * m - e, w, 31) else m - 1


def sqrt_verdicts(z: int, counts: tuple, l_ss: int, dim_ss: int) -> tuple[bool, ...]:
    """Whether each check of ``check_sqrt_lower_bound`` passes at
    G = H x T^z, in its order, from the pairs, length and dimension of H."""
    total, dim = l_ss + z, dim_ss + z
    out = (total >= _sqrt_threshold(dim, True),)
    lone = _lone_pair(z, counts)
    if lone is not None and lone[1] == 1:
        out += (total >= _sqrt_threshold(dim, lone[0].family in _XI_ALPHA_FAMILIES),)
    return out


def check_sqrt_lower_bound(g: GroupType) -> list[Check]:
    _bind_radicals()
    total = length(g)
    z = g.torus_rank
    ok = sqrt_verdicts(z, g.counts, total - z, g.dim - z)
    out = [
        Check(
            "length above the square-root dimension bound",
            {"group": str(g), "dim": g.dim},
            f"l = {total}",
            f"beta*(sqrt(dim)-alpha) = {_sqrt_bound(g.dim, True).decimal(4)}",
            ok[0],
        )
    ]
    if g.is_simple:
        xi_is_alpha = g.simple_factor.family in _XI_ALPHA_FAMILIES
        xi = ALPHA if xi_is_alpha else QuadExpr.rational(1)
        out.append(
            Check(
                "simple length above the family-specific square-root bound",
                {"group": str(g), "xi": xi.decimal(4)},
                f"l = {total}",
                f"beta*(sqrt(dim)-xi) = {_sqrt_bound(g.dim, xi_is_alpha).decimal(4)}",
                ok[1],
            )
        )
    return out


def lendim_formula(s: SimpleType) -> QuadExpr:
    """The length of a classical simple group written as an exact radical
    function of its dimension d; agrees with ``length`` exactly."""
    _bind_radicals()
    if not s.is_classical:
        raise MalformedTypeError(f"classical type required, got {s}")
    d = s.dim
    if s.family == "SU":
        return QuadExpr.sqrt(d + 1, 2) - 2
    if s.family == "Sp":
        return QuadExpr.sqrt(Fraction(d) + Fraction(1, 8), 3) * QuadExpr.sqrt(Fraction(1, 2)) - Fraction(7, 4)
    k = s.degree % 4
    return QuadExpr.sqrt(Fraction(d) + Fraction(1, 8), 5) * QuadExpr.sqrt(Fraction(1, 8)) - Fraction(2 * k + 3, 8)


# the bits of the isqrt brackets of elem_inequalities (iii)
_BRACKET_BITS = 32


def _root_sum(rs) -> tuple[int, int]:
    """Integers lo <= 2^_BRACKET_BITS * sum(sqrt(r) for r in rs) < hi."""
    lo = hi = 0
    for r in rs:
        n, d = r.numerator << 2 * _BRACKET_BITS, r.denominator
        lo, hi = lo + isqrt(n // d), hi + isqrt(-(-n // d)) + 1
    return lo, hi


def elem_inequalities(x, y) -> tuple[Optional[bool], Optional[bool], Optional[bool]]:
    """The three elementary square-root inequalities, each decided exactly
    when its precondition holds (None otherwise):
    (i)  x >= 1:       1 + beta*sqrt(x) >= beta*sqrt(x+1)
    (ii) x, y >= 3:    sqrt(x) + sqrt(y) >= sqrt(x+y) + 1
    (iii) x, y >= 78:  sqrt(x) + sqrt(y) >= sqrt(x+y) + alpha

    Both sides are positive, so squaring keeps the order.  With
    beta^2 = 25/8, (i) holds iff 2 beta sqrt(x) >= 17/8, iff 800x >= 289.
    (ii) holds iff 2 sqrt(xy) >= 1 + 2 sqrt(x+y), iff A >= 4 sqrt(x+y) for
    A = 4xy - 4(x+y) - 1.  (iii), as alpha = sqrt(248) - sqrt(128), puts
    ``isqrt`` brackets on sqrt(x) + sqrt(y) + sqrt(128) and
    sqrt(x+y) + sqrt(248), and compares ``QuadExpr`` values only when they
    overlap.
    """
    _bind_radicals()
    x = Fraction(x)
    y = Fraction(y)
    first = second = third = None
    if x >= 1:
        first = 800 * x >= 289
    if x >= 3 and y >= 3:
        a = 4 * x * y - 4 * (x + y) - 1
        second = a >= 0 and a * a >= 16 * (x + y)
    if x >= 78 and y >= 78:
        (lhs_lo, lhs_hi), (rhs_lo, rhs_hi) = _root_sum((x, y, 128)), _root_sum((x + y, 248))
        if lhs_lo >= rhs_hi or lhs_hi <= rhs_lo:
            third = lhs_lo >= rhs_hi
        else:
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
    _bind_radicals()
    total, q, r, k = _smalll_sums(ns)
    value = QuadExpr.rational(Fraction(5 * total, 4) - Fraction(7 * k, 4))
    value -= QuadExpr.sqrt(q, Fraction(5, 4))
    value -= QuadExpr.sqrt(r)
    return value


def smalll_deficit_negative(ns: Sequence[int]) -> bool:
    """Whether ``smalll_deficit(ns)`` is negative, decided in integers."""
    return smalll_sums_negative(*_smalll_sums(ns))


def smalll_sums_negative(total: int, q: int, r: int, k: int) -> bool:
    """Whether the deficit of a valid tuple is negative, from its sums
    S = sum n_i, Q = sum n_i(n_i-1), R = sum_{i>=2} n_i and its size k.

    Four times the deficit is A - 5 sqrt(Q) - 4 sqrt(R) with
    A = 5S - 7k >= 28k > 0, as every n_i >= 7.  Both sides of
    A < 5 sqrt(Q) + 4 sqrt(R) are then nonnegative, so squaring keeps the
    order: it holds iff B = A^2 - 25Q - 16R < 40 sqrt(QR), that is iff
    B < 0 or B^2 < 1600 QR."""
    a = 5 * total - 7 * k
    b = a * a - 25 * q - 16 * r
    return b < 0 or b * b < 1600 * q * r


# slack constants in the length vs chain-difference bound for simple groups;
# everything not listed has slack 0.  (The doubled-depth margin 2*depth - length
# equals 1 for G2, so it sits with Sp_4 and SO_7.)
_TWICE_SLACK = {
    _SU2: 2,
    SimpleType("SU", 3): 2,
    SimpleType("SU", 4): 2,
    SimpleType("Sp", 4): 1,
    SimpleType("SO", 7): 1,
    SimpleType("G2"): 1,
}


def lcd_verdicts(z: int, counts: tuple, l_ss: int, dim_ss: int, cd_low: int) -> tuple[bool, ...]:
    """Whether each check of ``check_lcd`` passes at G = H x T^z, in its
    order, from the pairs, length and dimension of H and the lower end of
    the refined cd(G)."""
    out = (l_ss <= 2 * cd_low + 2, dim_ss <= _quad_cd_limit(cd_low))
    lone = _lone_pair(z, counts)
    if lone is not None:
        s, k = lone
        if k == 1:
            out += (l_ss <= 2 * cd_low + _TWICE_SLACK.get(s, 0),)
        elif s == _SU2:
            out += (l_ss == 2 * cd_low + 2,)
        else:
            out += (l_ss <= 2 * cd_low,)
    return out


def check_lcd(g: GroupType) -> list[Check]:
    """Length of G' against the chain difference: l(G') <= 2 cd(G) + 2, the
    induced quadratic dimension bound, and the per-factor refinements.  The
    chain difference is refined to the brute-force value on the curated set,
    and its lower end otherwise to l(G) - ``merging_depth(G)``, as the
    sweep's part records bound it."""
    cd = chain_difference(g, refine=True)
    cd_low = max(cd.lower, length(g) - merging_depth(g))
    cd = BoundsOrExact(cd_low, cd.upper)
    h = g.semisimple_part
    l_ss = length(h)
    dim_ss = h.dim
    z = g.torus_rank
    ok = lcd_verdicts(z, g.counts, l_ss, dim_ss, cd_low)
    out = [
        Check(
            "semisimple length at most twice the chain difference plus two",
            {"group": str(g), "cd": str(cd)},
            f"l(G') = {l_ss}",
            f"2*cd+2 = {2 * cd_low + 2}",
            ok[0],
        ),
        Check(
            "semisimple dimension within the quadratic chain-difference bound",
            {"group": str(g), "cd": str(cd)},
            f"dim G' = {dim_ss}",
            f"(beta^-1*(2cd+2)+alpha)^2 = {_quad_cd_bound(cd_low).decimal(4)}",
            ok[1],
        ),
    ]
    if g.is_simple:
        s = g.simple_factor
        slack = _TWICE_SLACK.get(s, 0)
        out.append(
            Check(
                "simple length at most twice chain difference plus slack",
                {"group": str(g), "slack": slack},
                f"l = {l_ss}",
                f"2*cd+{slack} = {2 * cd_low + slack}",
                ok[2],
            )
        )
    if len(g.counts) == 1 and not z and g.counts[0][1] >= 2:
        s, k = g.counts[0]
        if s == _SU2:
            rhs = f"2*cd+2 = {2 * cd_low + 2} (equality)"
        else:
            rhs = f"2*cd = {2 * cd_low}"
        out.append(
            Check(
                "homogeneous power length against doubled chain difference",
                {"group": str(g), "k": k},
                f"l = {l_ss}",
                rhs,
                ok[2],
            )
        )
    return out
