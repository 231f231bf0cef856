"""Named verification suites behind the ``check-theorems`` command.

Each suite exhaustively checks one classification or inequality over a
bounded search space (total dimension for group enumerations, degree for
per-family scans) and returns a list of Check records.  ``cross_validate``
compares the closed forms with the brute force group by group.

The sweeps over the enumeration read one record per semisimple part H
(``Part``), built once per process (``_parts``, two bounds kept) and
shared by every sweep.  The record carries the closed-form depth of H,
exact for tori and S^k; for a mixed product, the interval from the
closed-form lower end up to ``formulas.merging_depth(H)``, the length of
an explicit chain.  Building it asks no oracle.  A sweep decides each part
from its record in integers, with the same verdict functions the
``formulas.check_*`` checks take ``passed`` from (``sqrt`` and ``lcd``
compare with cached exact integer thresholds).  A part is decided at the
representatives H (z = 0) and H x T (z = 1), or at T for the tori; when
they all pass, every torus rank of the range passes, and no Check is
built.  When one fails or is unresolved, every H x T^z of the range goes
through the per-group check in order, so failures are rendered and listed
exactly as a group-by-group sweep lists them.

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
  simple and homogeneous checks apply only at z = 0.  Superadditivity
  compares the unrefined cd(G), also fixed, with a sum over the factors
  of H.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .formulas import (
    BoundsOrExact,
    Check,
    chain_difference,
    check_dimlen,
    check_lcd,
    check_sqrt_lower_bound,
    complex_depth_simple,
    depth,
    depth_simple,
    dimlen_verdicts,
    elem_inequalities,
    f_classical,
    is_length_eq_depth,
    lcd_verdicts,
    lendim_formula,
    length,
    length_complex_semisimple,
    length_simple,
    merging_depth,
    smalll_sums_negative,
    sqrt_verdicts,
)
from .groups import GroupType, SimpleType, iter_semisimple, iter_simple_types, simple
from .oracle import oracle_depth, oracle_length
from .radicals import BETA, QuadExpr
from .subgroups import CURATED_SIMPLE, min_irrep_dim

DEFAULT_MAX_DIM = 60

# the values everything exceptional is pinned to
_EXBD_M = {"G2": 7, "F4": 31, "E6": 32, "E7": 69, "E8": 309}


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


class Part(NamedTuple):
    """One semisimple part H of the enumeration, in integers."""

    h: GroupType
    zs: range              # the torus ranks z with H x T^z in range
    dim: int               # D = dim H
    length: int            # L = l(H)
    depth: BoundsOrExact   # depth(H), up to merging_depth(H) when mixed


def _part_depth(h: GroupType) -> BoundsOrExact:
    """The closed-form depth of ``h``, its upper end lowered to the merging
    chain when it is an interval; the oracle is not asked."""
    d = depth(h)
    return d if d.is_exact else BoundsOrExact(d.lower, merging_depth(h))


@lru_cache(maxsize=2)
def _parts(max_dim: int) -> tuple[Part, ...]:
    """The records of ``iter_semisimple(max_dim)``, in its order."""
    return tuple(Part(h, zs, h.dim, length(h), _part_depth(h))
                 for h, zs in iter_semisimple(max_dim))


def _by_part(parts: Iterable[Part],
             holds: Callable[[Part, int], bool]) -> Iterator[tuple[Part, list[GroupType]]]:
    """Each part with the groups H x T^z left to check one by one: none when
    ``holds`` at the representatives (the first rank, and 1 when the ranks
    start at 0), every one in order otherwise."""
    for p in parts:
        zs = p.zs
        representatives = zs[:2] if zs[0] == 0 else zs[:1]
        if all(holds(p, z) for z in representatives):
            yield p, []
        else:
            yield p, [p.h.with_torus(z) for z in zs]


# -- per-part verdicts, one per sweep: whether H x T^z passes --------------------

def _rank_bounds_hold(p: Part, z: int) -> bool:
    t = sum(k for _, k in p.h.counts)
    r = p.h.rank
    return 2 * r <= p.length <= 3 * r - t if t else p.length == 0


def _dimlen_holds(p: Part, z: int) -> bool:
    return all(dimlen_verdicts(z, p.h.counts, p.length, p.dim))


def _sqrt_holds(p: Part, z: int) -> bool:
    return all(sqrt_verdicts(z, p.h.counts, p.length, p.dim))


def _lcd_holds(p: Part, z: int) -> bool:
    return all(lcd_verdicts(z, p.h.counts, p.length, p.dim, p.length - p.depth.upper))


def _ld_holds(p: Part, z: int) -> bool:
    return _depth_is(p.depth, p.length) == is_length_eq_depth(p.h)


def _cd_holds(p: Part, z: int) -> bool:
    return _depth_is(p.depth, p.length - 1) == is_published_cd_one(p.h)


def _block_cd(s: SimpleType, k: int) -> int:
    """cd(S^k) = k l(S) - depth(S^k), with depth(S^k) = depth(S) + k - 1."""
    return k * length_simple(s) - depth_simple(s) - k + 1


def _superadditive(counts: tuple, cd_lower: int) -> bool:
    """cd(G) >= the sum of cd(S^k) over the homogeneous blocks S^k of G,
    from the lower end of the unrefined cd(G); vacuous for one block."""
    if len(counts) < 2:
        return True
    return cd_lower >= sum(_block_cd(s, k) for s, k in counts)


def _superadditive_holds(p: Part, z: int) -> bool:
    return _superadditive(p.h.counts, chain_difference(p.h).lower)


def _classification(name: str, max_dim: int, holds: Callable[[Part, int], bool],
                    predicate: Callable[[GroupType], bool],
                    computed: Callable[[GroupType], Optional[bool]]) -> list[Check]:
    scanned = 0
    mismatches: list[str] = []
    unresolved: list[str] = []
    for p, groups in _by_part(_parts(max_dim), holds):
        scanned += len(p.zs)
        for g in groups:
            want = predicate(g)
            got = computed(g)
            if got is None:
                unresolved.append(str(g))
            elif got != want:
                mismatches.append(f"{g} (computed={got}, characterized={want})")
    return [Check(
        name,
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


def _sweep(claim: str, max_dim: int, holds: Callable[[Part, int], bool],
           checker: Callable[[GroupType], list[Check]]) -> Check:
    """Every per-group check of ``checker`` over the enumeration, as one
    verdict on the failed ones; ``holds`` decides a part without it."""
    scanned = 0
    failures: list[str] = []
    for p, groups in _by_part(_parts(max_dim), holds):
        scanned += len(p.zs)
        for g in groups:
            failures += [f"{g}: {check.claim}" for check in checker(g) if not check.passed]
    return _verdict(claim, {"max_dim": max_dim, "groups_scanned": scanned},
                    "failures", failures)


# -- individual suites -----------------------------------------------------------

def suite_general(max_dim: int) -> list[Check]:
    """Rank bounds on the length of every enumerated group."""
    worst = None
    scanned = 0
    for p, groups in _by_part(_parts(max_dim), _rank_bounds_hold):
        bad = next((i for i, g in enumerate(groups)
                    if not _rank_bounds_hold(p, g.torus_rank)), None)
        if bad is None:
            scanned += len(p.zs)
        else:
            scanned += bad + 1  # the first failure ends the scan
            worst = str(groups[bad])
            break
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
                   _dimlen_holds, check_dimlen)]


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
               _sqrt_holds, check_sqrt_lower_bound),
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
        max_dim, _ld_holds, is_length_eq_depth, computed_length_eq_depth)


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
        max_dim, _cd_holds, is_published_cd_one, computed_cd_is_one)


def suite_lcd(max_dim: int) -> list[Check]:
    """Semisimple length against the chain difference, over the enumeration,
    with equality spot-checked at SU(2)^k."""
    out = [_sweep("chain-difference length bounds over the enumeration", max_dim,
                  _lcd_holds, check_lcd)]
    powers = {k: GroupType(0, ((SimpleType("SU", 2), k),)) for k in range(1, 6)}
    eq_bad = [k for k, g in powers.items()
              if length(g) != 2 * chain_difference(g).exact_value + 2]
    out.append(_verdict("equality l = 2 cd + 2 at every power of SU(2)",
                        {"k": "1..5"}, "mismatches", eq_bad, None))
    # the records of dim <= 40 with their ranges cut to 40, in the order of
    # iter_semisimple(40): the parts of dimension <= 40 are closed under
    # dropping a factor, so the preorder keeps their relative order
    bound = min(max_dim, 40)
    small = (p._replace(zs=range(p.zs.start, bound - p.dim + 1))
             for p in _parts(max_dim) if p.dim <= bound)
    superadd_bad = [str(g) for _, groups in _by_part(small, _superadditive_holds)
                    for g in groups
                    if not _superadditive(g.counts, chain_difference(g).lower)]
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
