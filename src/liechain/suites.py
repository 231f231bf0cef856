"""Named verification suites behind the ``check-theorems`` command.

Each suite exhaustively checks one classification or inequality over a
bounded search space (total dimension for group enumerations, degree for
per-family scans) and returns a list of Check records.  ``cross_validate``
compares the closed forms with the brute force group by group, over
``oracle_scope`` for ``oracle --cross-validate``; ``min_irrep_dim`` is the
representation data of the ``tables`` suite.

The per-group checks of the paper's inequalities (``check_*``) and the
radical-valued helpers they and the suites use (``lendim_formula``,
``elem_inequalities``, ``smalll_deficit``) live here too, so this is the
only module that builds values of ``radicals``, which no query loads.

The sweeps over the enumeration read one pass per bound (``_decided``, two
bounds kept), which walks one record per semisimple part H (folded by
``_fold``) and keeps only the count of groups and, per sweep, the parts it
could not decide, each as (groups before it, H, torus ranks).  The record
carries the closed-form depth of H, exact for tori and S^k; for a mixed
product, the interval from the closed-form lower end up to
``formulas.merging_depth(H)``, the length of an explicit chain.  Building
it asks no oracle, and no closed form is evaluated on H itself: each closed
form is a sum over the factors, so the record of H = H_0 x S is that of
H_0, its parent in the enumeration's preorder, plus the terms of S.  The
pass decides each part once, in integers: it calls each verdict function
the ``check_*`` checks take ``passed`` from once, at the first
torus rank (H, or T for the tori), and ``sqrt_verdicts`` at H x T too
(``sqrt`` and ``lcd`` compare with cached exact integer thresholds);
``general``, ``ld`` and ``cd`` it decides in line.  When all pass, every
torus rank of the range passes, and nothing is built.  Otherwise
``_undecided`` yields every H x T^z of the range in order, and the sweep
sends each through the per-group check, so failures are rendered and
listed exactly as a group-by-group sweep lists them; ``general`` fails on
the first, as its verdict reads no torus rank.

Of the sweeps over the enumeration, only that fall-back asks the oracle:
``formulas.depth(refine=True)`` decides for the per-group checks
(``computed_*``, ``check_lcd``) and for ``chains.min_chain`` whether a
depth is exact and when the oracle is asked for one.  At the default
bound it is asked only about SU_3 x SU_2 x T^z, which the published cd
list names.  A part's verdict agrees with the
per-group checks: the brute-force depth lies in the part's interval, so an
interval that decides ``ld`` or ``cd`` decides it as the refined depth
does, and ``check_lcd`` lowers its cd by the same merging chain, so its
verdicts, monotone in the lower end of cd, pass wherever the part's do.

Why a pass at z = 0 is a pass at z = 1, for every verdict but ``sqrt``.
``general``, ``ld`` and ``cd`` read no z: the rank bounds
and the predicates read the factors, and cd(H x T^z) = cd(H) (below).
``dimlen_verdicts`` and ``lcd_verdicts`` read z only to find a lone pair
S^k, at z = 0: their other items compare D - L with D, l = dim with being
a torus, and L and D with cd(H), none of which z moves.  So their tuple at
z = 1 is the first items of their tuple at z = 0, which adds the simple
and homogeneous items, and a pass at z = 0 passes z = 1.  ``sqrt``'s item
at z = 1 compares L + 1 with the threshold at D + 1, which no item at
z = 0 does, so the pass asks ``sqrt_verdicts`` at z = 1 too.

Why a pass at z = 1 is a pass at every z >= 1.  Let G = H x T^z.  Then
l(G) = L + z, dim G = D + z, rank G = rank H + z and G' = H.  The
closed-form depth of G is that of H plus z, exact or interval alike, and
so is the merging chain's length; with ``refine=True`` the brute-force
depth is too, by the oracle's torus shift, and the refinement reads only
the factors.  So cd(G x T) = cd(G), refined or not.  Per suite:

- general: r = rank - z and t are fixed, and z + 2r <= L + z <= z + 3r - t
  is 2r <= L <= 3r - t (a torus has L + z = z).
- dimlen: dim - l = D - L and dim G' = D do not depend on z, nor do
  l = dim (iff L = D) and being a torus; the simple-group check applies
  only at z = 0.
- sqrt: f(z) = L + z - beta (sqrt(D + z) - alpha) has derivative
  1 - beta / (2 sqrt(D + z)) > 0 once D + z >= 1, since beta/2 ~ 0.884 < 1,
  so f(z) >= f(1) >= 0.  The simple-group variant applies only at z = 0.
- ld, cd: the predicates read only the factors, and the computed sides
  compare l(G) with depth(G), or read cd(G); both shift by z on both ends.
- lcd: cd(G) is fixed, refined included, and so are l(G') and dim G'; the
  simple and homogeneous checks apply only at z = 0.

``suite_lcd`` decides superadditivity, the refined cd(G) against a sum over
the factors of H, outside the pass: once per part of dim <= 40, as cd(G)
is fixed along the torus ranks.  It asks the oracle about the 214 curated
mixed parts there.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import MalformedTypeError
from .formulas import (
    _SU2,
    _min_path,
    BoundsOrExact,
    chain_difference,
    complex_depth_simple,
    depth,
    depth_simple,
    f_classical,
    is_length_eq_depth,
    length,
    length_complex_semisimple,
    length_simple,
    merging_depth,
)
from .groups import (
    GroupType,
    SimpleType,
    iter_semisimple,
    iter_simple_types,
    product,
    simple,
    torus,
)
from .oracle import oracle_depth, oracle_length
from .radicals import ALPHA, BETA, BETA_ALPHA, BETA_INV, QuadExpr
from .subgroups import CURATED_SIMPLE

DEFAULT_MAX_DIM = 60

# the values everything exceptional is pinned to
_EXBD_M = {"G2": 7, "F4": 31, "E6": 32, "E7": 69, "E8": 309}


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
    total, q, r, k = _smalll_sums(ns)
    value = QuadExpr.rational(Fraction(5 * total, 4) - Fraction(7 * k, 4))
    value -= QuadExpr.sqrt(q, Fraction(5, 4))
    value -= QuadExpr.sqrt(r)
    return value


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


# -- sweeps over the enumeration -----------------------------------------------

def _depth_is(d: BoundsOrExact, target: int) -> Optional[bool]:
    """Whether the depth ``d`` equals ``target``: None when ``d`` is an
    interval that holds ``target``."""
    if d.is_exact:
        return target == d.lower
    return None if target in d else False


def computed_length_eq_depth(g: GroupType) -> Optional[bool]:
    """Decide l(G) = depth(G) from the implementation itself (None if the
    implementation cannot resolve it, which does not happen in range)."""
    return _depth_is(depth(g, refine=True), length(g))


def computed_cd_is_one(g: GroupType) -> Optional[bool]:
    """Decide cd(G) = 1, that is depth(G) = l(G) - 1, from the
    implementation itself."""
    return _depth_is(depth(g, refine=True), length(g) - 1)


def _fold(max_dim: int) -> Iterator[tuple]:
    """The record of each part of ``iter_semisimple(max_dim)``, in its order,
    as the plain row (h, zs, dim, l, lower, upper, rank, n), with
    [lower, upper] the depth of H; folded along the preorder.

    The parent of a part H = H_0 x S, S its last factor, is H_0, with one
    copy of S fewer; in preorder it is the last part seen with one factor
    fewer.  So the fold keeps a stack of rows, one per factor count, from
    the trivial part down to the last part seen: dims grow along it, so the
    parent is the row of dim D - dim S.  A record is its parent's row plus
    the data of S, each closed form being a sum over the factors:

    - dim, l and rank add dim S, l(S) and rank S, and n adds 1;
    - the lower end of ``depth``, sum(k + 1) over the pairs (S, k), adds 2
      when S is a new factor (k = 1) and 1 when it is one more copy;
    - ``merging_depth``, n + |U| for U the union of the factors'
      ``_min_path``s, adds 1 to n, and U gains ``_min_path(S)`` only when
      S is a new factor.

    A part with one pair S^k takes n + |U| = k + depth_simple(S) - 1 as its
    exact depth, since |_min_path(S)| = depth_simple(S) - 1; a mixed part
    takes the interval [sum(k + 1), n + |U|]."""
    parts = iter_semisimple(max_dim)
    h, zs = next(parts)  # the trivial part, the root of the preorder
    yield h, zs, 0, 0, 0, 0, 0, 0
    # rows[n]: (dim, l, rank, lower end of depth, U) of the last part with n factors
    rows = [(0, 0, 0, 0, frozenset())]
    per_type: dict[SimpleType, tuple] = {}
    for h, zs in parts:
        counts = h.counts
        s, k = counts[-1]
        data = per_type.get(s)
        if data is None:
            data = per_type[s] = (s.dim, length_simple(s), s.rank, _min_path(s))
        s_dim, s_length, s_rank, s_path = data
        dim = max_dim + 1 - zs.stop  # zs is 0..max_dim - D
        while rows[-1][0] != dim - s_dim:
            rows.pop()
        n = len(rows)
        _, l, rank, lower, union = rows[-1]
        l += s_length
        rank += s_rank
        if k == 1:
            lower, union = lower + 2, union | s_path
        else:
            lower += 1
        rows.append((dim, l, rank, lower, union))
        upper = n + len(union)
        yield h, zs, dim, l, upper if len(counts) == 1 else lower, upper, rank, n


def _block_cd(s: SimpleType, k: int) -> int:
    """cd(S^k) = k l(S) - depth(S^k), with depth(S^k) = depth(S) + k - 1."""
    return k * length_simple(s) - depth_simple(s) - k + 1


def _superadditive(h: GroupType) -> bool:
    """cd(H) >= the sum of cd(S^k) over the homogeneous blocks S^k of H,
    from the lower end of the refined cd(H); vacuous for one block."""
    counts = h.counts
    if len(counts) < 2:
        return True
    return chain_difference(h, refine=True).lower >= sum(_block_cd(s, k) for s, k in counts)


# the verdicts of the pass, one per enumeration sweep
_PASS_VERDICTS = ("general", "dimlen", "sqrt", "ld", "cd", "lcd")


@lru_cache(maxsize=2)
def _decided(max_dim: int) -> tuple[int, dict[str, list[tuple[int, GroupType, range]]]]:
    """One walk of ``_fold(max_dim)`` that decides each verdict of each part
    once, at its first torus rank, and ``sqrt`` at 1 too when the ranks
    start at 0: the count of groups in range and, per verdict, the parts it
    left undecided, each as (count of groups before it, H, torus ranks)."""
    if max_dim < 1:
        raise ValueError(f"max_dim must be at least 1, got {max_dim}")
    undecided: dict[str, list[tuple[int, GroupType, range]]] = {
        name: [] for name in _PASS_VERDICTS}
    scanned = 0
    for h, zs, dim, l, lower, upper, rank, n in _fold(max_dim):
        counts = h.counts
        z = zs[0]
        cd_low, cd_high = l - upper, l - lower
        general = 2 * rank <= l <= 3 * rank - n if n else l == 0
        dimlen = all(dimlen_verdicts(z, counts, l, dim))
        sqrt = all(sqrt_verdicts(z, counts, l, dim)) and (
            z or len(zs) == 1 or all(sqrt_verdicts(1, counts, l, dim)))
        # _depth_is(depth, l - c) == predicate, for cd = c: an exact cd equal
        # to c when the predicate holds, else a cd interval without c
        ld = cd_low == cd_high == 0 if is_length_eq_depth(h) else not cd_low <= 0 <= cd_high
        cd = cd_low == cd_high == 1 if is_published_cd_one(h) else not cd_low <= 1 <= cd_high
        lcd = all(lcd_verdicts(z, counts, l, dim, cd_low))
        if not (general and dimlen and sqrt and ld and cd and lcd):
            for name, holds in zip(_PASS_VERDICTS, (general, dimlen, sqrt, ld, cd, lcd)):
                if not holds:
                    undecided[name].append((scanned, h, zs))
        scanned += len(zs)
    return scanned, undecided


def _undecided(max_dim: int, verdict: str) -> tuple[int, Iterator[tuple[int, GroupType]]]:
    """The count of groups in range, and every group H x T^z of the parts
    the pass left ``verdict`` undecided on, in enumeration order, each with
    the count of groups before it."""
    scanned, undecided = _decided(max_dim)
    return scanned, ((before + i, h.with_torus(z)) for before, h, zs in undecided[verdict]
                     for i, z in enumerate(zs))


def _classification(claim: str, max_dim: int, verdict: str,
                    predicate: Callable[[GroupType], bool],
                    computed: Callable[[GroupType], Optional[bool]]) -> list[Check]:
    scanned, groups = _undecided(max_dim, verdict)
    mismatches: list[str] = []
    unresolved: list[str] = []
    for _, g in groups:
        want = predicate(g)
        got = computed(g)
        if got is None:
            unresolved.append(str(g))
        elif got != want:
            mismatches.append(f"{g} (computed={got}, characterized={want})")
    return [Check(
        claim,
        {"max_dim": max_dim, "groups_scanned": scanned,
         "mismatches": mismatches[:8], "unresolved": unresolved[:8]},
        f"mismatches = {len(mismatches)}",
        "expected 0",
        not mismatches and not unresolved,
    )]


def _verdict(claim: str, inputs: dict, noun: str, bad: list,
             shown: Optional[int] = 8) -> Check:
    """The check that ``bad`` is empty: its count against 0, with the first
    ``shown`` items (all when None) listed under ``noun`` after ``inputs``."""
    return Check(claim, {**inputs, noun: bad[:shown]}, f"{noun} = {len(bad)}",
                 "expected 0", not bad)


def _sweep(claim: str, max_dim: int, verdict: str,
           checker: Callable[[GroupType], list[Check]]) -> Check:
    """Every per-group check of ``checker`` over the enumeration, as one
    verdict on the failed ones; the pass decides the parts ``verdict``
    holds on without it."""
    scanned, groups = _undecided(max_dim, verdict)
    failures = [f"{g}: {check.claim}" for _, g in groups
                for check in checker(g) if not check.passed]
    return _verdict(claim, {"max_dim": max_dim, "groups_scanned": scanned},
                    "failures", failures)


# -- individual suites -----------------------------------------------------------

def suite_general(max_dim: int) -> list[Check]:
    """Rank bounds on the length of every enumerated group.  The pass's
    verdict reads no torus rank, so the first group it leaves undecided is
    the first failure, and ends the scan."""
    worst = None
    scanned, groups = _undecided(max_dim, "general")
    first = next(groups, None)
    if first is not None:
        before, g = first
        scanned, worst = before + 1, str(g)
    return [Check(
        "length within the rank bounds z+2r <= l <= z+3r-t",
        {"max_dim": max_dim, "groups_scanned": scanned, "first_failure": worst},
        "all groups in range",
        "bounds hold",
        worst is None,
    )]


def suite_dimlen(max_dim: int) -> list[Check]:
    """Dimension-deficit bounds for every enumerated group."""
    return [_sweep("dimension deficit bounds over the enumeration", max_dim,
                   "dimlen", check_dimlen)]


def suite_sqrt(max_dim: int) -> list[Check]:
    """Square-root lower bound for every enumerated group, the sharper
    simple-group variant, and the three elementary inequalities."""
    grid = [Fraction(1), Fraction(3, 2), Fraction(3), Fraction(7), Fraction(25, 2),
            Fraction(78), Fraction(100), Fraction(625, 4)]
    elem_bad = []
    for x in grid:
        for y in grid:
            for label, value in zip(("growth", "sum-vs-1", "sum-vs-alpha"),
                                    elem_inequalities(x, y)):
                if value is False:
                    elem_bad.append(f"({x},{y}) {label}")
    return [
        _sweep("square-root dimension lower bound over the enumeration", max_dim,
               "sqrt", check_sqrt_lower_bound),
        _verdict("elementary square-root inequalities on a rational grid",
                 {"grid": [str(q) for q in grid]}, "failures", elem_bad, None),
    ]


def suite_smalll(max_dim: int) -> list[Check]:
    """Orthogonal-product deficit: nonnegative on the whole tuple range
    except exactly at (n_1, k) = (7, 2).  Each tuple is decided from its
    sums, built for all tails (n_2, ..., n_k) of one n_1 and k at once."""
    del max_dim  # fixed range
    negatives: list[tuple[int, ...]] = []
    checked = 0
    for k in (2, 3, 4):
        for n1 in range(7, 21):
            entries = range(7, n1 + 1)
            # (R, Q - n_1(n_1-1)) of each tail, in the order of the product
            sums = [(0, 0)]
            for _ in range(k - 1):
                sums = [(r + n, q + n * (n - 1)) for r, q in sums for n in entries]
            q1 = n1 * (n1 - 1)
            for rest, (r, q) in zip(itertools.product(entries, repeat=k - 1), sums):
                if smalll_sums_negative(n1 + r, q1 + q, r, k):
                    negatives.append((n1, *rest))
            checked += len(sums)
    expected = [ns for ns in negatives if not (ns[0] == 7 and len(ns) == 2)]
    return [Check(
        "product-length deficit nonnegative except exactly at (n_1, k) = (7, 2)",
        {"tuples_checked": checked, "negatives": [list(n) for n in negatives[:8]]},
        f"unexpected negatives = {len(expected)}",
        "expected 0, with (7, 7) negative",
        bool(negatives) and not expected,
    )]


def suite_liedep(max_dim: int) -> list[Check]:
    """Simple-group depth table: brute force on the curated types, and the
    complexified-depth offset as stored data everywhere."""
    bad = [str(s) for s in sorted(CURATED_SIMPLE, key=lambda s: s.sort_key)
           if oracle_depth(simple(s.family, s.degree)) != depth_simple(s)]
    offset_bad = [str(s) for s in iter_simple_types(max_degree=60)
                  if depth_simple(s) != complex_depth_simple(s) - 1
                  or depth_simple(s) not in (2, 3, 4, 5)]
    return [
        _verdict("brute-force depth matches the simple depth table on curated types",
                 {"curated": len(CURATED_SIMPLE)}, "mismatches", bad, None),
        _verdict("compact depth is the complexified depth minus one",
                 {"max_degree": 60}, "mismatches", offset_bad),
    ]


def suite_depbds(max_dim: int) -> list[Check]:
    """Depth of homogeneous powers, and interval bounds for mixed products,
    against the brute force."""
    curated = sorted(CURATED_SIMPLE, key=lambda t: t.sort_key)
    homog_bad = []
    for s in curated:
        for k in range(1, 5):
            for z in (0, 2):
                g = GroupType(z, ((s, k),))
                if oracle_depth(g) != z + depth_simple(s) + k - 1:
                    homog_bad.append(str(g))
    pairs = [GroupType(0, ((a, 1), (b, 1))) for a, b in itertools.combinations(curated, 2)]
    pair_bad = [str(g) for g in pairs if oracle_depth(g) not in depth(g)]
    return [
        _verdict("homogeneous power depth z + depth(S) + k - 1",
                 {"powers": "k <= 4, z in {0, 2}"}, "mismatches", homog_bad),
        _verdict("mixed-product depth within the interval bounds",
                 {"pairs": len(pairs)}, "mismatches", pair_bad, None),
    ]


def suite_ld(max_dim: int) -> list[Check]:
    """Groups with equal length and depth are exactly the tori and SU_2
    times a torus."""
    return _classification(
        "length equals depth exactly for tori and SU(2) x torus",
        max_dim, "ld", is_length_eq_depth, computed_length_eq_depth)


# the chain-difference-one list as published: commutator SU_3, SU_2^2 or
# SU_3 x SU_2, times any torus; kept verbatim although its third entry has
# chain difference 2 (see ``is_cd_one``)
PUBLISHED_CD_ONE = (
    ((SimpleType("SU", 3), 1),),
    ((SimpleType("SU", 2), 2),),
    ((SimpleType("SU", 2), 1), (SimpleType("SU", 3), 1)),
)


def is_published_cd_one(g: GroupType) -> bool:
    return g.counts in PUBLISHED_CD_ONE


def suite_cd(max_dim: int) -> list[Check]:
    """Groups of chain difference one against the published list.  The list
    names SU_3 x SU_2, whose chain difference is 2, so from total dimension
    11 on this check fails on every SU_3 x SU_2 x T^z; ``is_cd_one`` is the
    corrected classification."""
    return _classification(
        "chain difference one matches the published list",
        max_dim, "cd", is_published_cd_one, computed_cd_is_one)


def suite_lcd(max_dim: int) -> list[Check]:
    """Semisimple length against the chain difference, over the enumeration,
    with equality spot-checked at SU(2)^k."""
    out = [_sweep("chain-difference length bounds over the enumeration", max_dim,
                  "lcd", check_lcd)]
    powers = {k: GroupType(0, ((SimpleType("SU", 2), k),)) for k in range(1, 6)}
    eq_bad = [k for k, g in powers.items()
              if length(g) != 2 * chain_difference(g).exact_value + 2]
    out.append(_verdict("equality l = 2 cd + 2 at every power of SU(2)",
                        {"k": "1..5"}, "mismatches", eq_bad, None))
    # the groups of dim <= 40 in the order of iter_groups(40), decided once
    # per part: the refined cd(H x T^z) is cd(H)
    superadd_bad = [str(h.with_torus(z)) for h, zs in iter_semisimple(min(max_dim, 40))
                    if not _superadditive(h) for z in zs]
    out.append(_verdict("chain difference at least the sum over homogeneous blocks",
                        {}, "mismatches", superadd_bad))
    return out


def suite_complex(max_dim: int) -> list[Check]:
    """Compact length strictly below the complexified length."""
    bad = [str(s) for s in iter_simple_types(max_degree=40)
           if not length_simple(s) < length_complex_semisimple(simple(s.family, s.degree))]
    return [_verdict("compact length below complexified length for simple types",
                     {"max_degree": 40}, "mismatches", bad)]


def _classical_lengths(n: int) -> dict[str, int]:
    """Length of each classical group of degree n, for the families that
    have one (Sp needs n even and at least 4, SO at least 7)."""
    lengths = {"SU": f_classical("SU", n)}
    if n % 2 == 0 and n >= 4:
        lengths["Sp"] = f_classical("Sp", n)
    if n >= 7:
        lengths["SO"] = f_classical("SO", n)
    return lengths


def min_irrep_dim(s: SimpleType) -> int:
    """Smallest dimension of a faithful-target nontrivial irreducible complex
    representation used by the length comparison tables: for classical types
    the smallest one exceeding the natural degree and avoiding classical
    coincidences, for exceptional types the minimal nontrivial one."""
    if s.family == "SU":
        if s.degree <= 4:
            return {2: 4, 3: 6, 4: 10}[s.degree]
        return s.degree * (s.degree - 1) // 2
    if s.family == "Sp":
        if s.degree == 4:
            return 10
        return s.degree * (s.degree - 1) // 2 - 1
    if s.family == "SO":
        if 7 <= s.degree <= 14 and s.degree != 8:
            return 2 ** ((s.degree - 1) // 2)
        return s.degree * (s.degree - 1) // 2
    return {"G2": 7, "F4": 26, "E6": 27, "E7": 56, "E8": 248}[s.family]


def suite_tables(max_dim: int) -> list[Check]:
    """Minimal-representation comparisons: classical growth, and the
    exceptional cut-off row."""
    bad = []
    for h in iter_simple_types(max_degree=30):
        if not h.is_classical:
            continue
        n_min = min_irrep_dim(h)
        for fam, f in _classical_lengths(n_min).items():
            if not f > f_classical(h.family, h.degree):
                bad.append(f"{h} -> {fam}({n_min})")
    out = [_verdict("classical minimal-representation length growth",
                    {"max_degree": 30}, "failures", bad)]
    for family, m_expected in _EXBD_M.items():
        s = SimpleType(family)
        n_min = min_irrep_dim(s)
        m = min(_classical_lengths(n_min).values())
        out.append(Check(
            f"exceptional cut-off for {family}",
            {"N": n_min, "m": m},
            f"l({family}) = {length_simple(s)}, m = {m}",
            f"expected m = {m_expected}, l < m",
            m == m_expected and length_simple(s) < m,
        ))
    return out


def meets_uniform_floor(l: int, dim: int) -> bool:
    """l >= beta sqrt(dim) - 9/8, in integers.  For l >= 0 both sides of
    l + 9/8 >= beta sqrt(dim) are nonnegative and beta^2 = 25/8, so squaring
    keeps the order: it holds iff (8l + 9)^2 >= 200 dim."""
    return (8 * l + 9) ** 2 >= 200 * dim


def suite_lendim(max_dim: int) -> list[Check]:
    """Radical length-vs-dimension formulas: exact agreement, the uniform
    floor, and the large-degree ratio limits."""
    bad = []
    floor_bad = []
    for s in iter_simple_types(max_degree=60):
        if not s.is_classical:
            continue
        if lendim_formula(s) != QuadExpr.rational(length_simple(s)):
            bad.append(str(s))
        if not meets_uniform_floor(length_simple(s), s.dim):
            floor_bad.append(str(s))
    out = [
        _verdict("radical formula reproduces the classical length exactly",
                 {"max_degree": 60}, "mismatches", bad),
        _verdict("uniform floor l >= beta*sqrt(d) - 9/8",
                 {"max_degree": 60}, "mismatches", floor_bad),
    ]
    limits = {"SU": QuadExpr.rational(2),
              "Sp": QuadExpr.sqrt(2, Fraction(3, 2)),
              "SO": BETA}
    degree = 400
    for fam, limit in limits.items():
        s = SimpleType(fam, degree)
        ratio = length_simple(s) / (s.dim ** 0.5)
        gap = abs(ratio - float(limit))
        out.append(Check(
            f"length-to-sqrt-dimension ratio near its limit for {fam}",
            {"degree": degree, "ratio": round(ratio, 5), "limit": limit.decimal(5)},
            f"|ratio - limit| = {gap:.5f}",
            "< 0.05",
            gap < 0.05,
        ))
    return out


SUITES: dict[str, Callable[[int], list[Check]]] = {
    "general": suite_general,
    "dimlen": suite_dimlen,
    "sqrt": suite_sqrt,
    "smalll": suite_smalll,
    "liedep": suite_liedep,
    "depbds": suite_depbds,
    "ld": suite_ld,
    "cd": suite_cd,
    "lcd": suite_lcd,
    "complex": suite_complex,
    "tables": suite_tables,
    "lendim": suite_lendim,
}


def run_suites(names: Iterable[str], max_dim: int = DEFAULT_MAX_DIM) -> list[tuple[str, Check]]:
    out = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r} (have: {', '.join(sorted(SUITES))})")
        for check in SUITES[name](max_dim):
            out.append((name, check))
    return out


def cross_validate(scope: Iterable[GroupType]) -> list[dict]:
    """Compare the closed forms against the brute force on each group in
    ``scope``; returns one record per group, with ``pass`` set when the
    lengths agree and the brute-force depth lies in (equals, when exact)
    the formula depth."""
    records = []
    for g in scope:
        formula_l = length(g)
        formula_d = depth(g)
        brute_l, brute_d = oracle_length(g), oracle_depth(g)
        records.append({
            "group": str(g),
            "formula_l": formula_l,
            "oracle_l": brute_l,
            "formula_depth": formula_d.to_json(),
            "oracle_depth": brute_d,
            "pass": brute_l == formula_l and brute_d in formula_d,
        })
    return records


def oracle_scope() -> list[GroupType]:
    """The groups ``oracle --cross-validate`` compares: each torus of rank at
    most 5 and each curated simple type, alone and in pairs."""
    base = [torus(k) for k in range(1, 6)] + [
        GroupType(0, ((s, 1),)) for s in sorted(CURATED_SIMPLE, key=lambda s: s.sort_key)]
    scope, seen = [], set()
    for r in (1, 2):
        for combo in itertools.combinations_with_replacement(base, r):
            g = product(combo)
            if g not in seen:
                seen.add(g)
                scope.append(g)
    return scope
