"""Named verification suites behind the ``check-theorems`` command.

Each suite exhaustively checks one classification or inequality over a
bounded search space (total dimension for group enumerations, degree for
per-family scans) and returns a list of Check records.  ``cross_validate``
compares the closed forms with the brute force group by group.

The sweeps over the enumeration go one semisimple part H at a time
(``iter_semisimple``).  A per-group check is evaluated only at the
representatives H (z = 0) and H x T (z = 1), or at T for the tori; when
they all pass, every torus rank of the range passes.  When one fails or is
unresolved, every H x T^z of the range is evaluated in order, so failures
are listed exactly as a group-by-group sweep lists them.

Why a pass at z = 1 is a pass at every z >= 1.  Let G = H x T^z, L = l(H)
and D = dim H.  Then l(G) = L + z, dim G = D + z, rank G = rank H + z and
G' = H.  The closed-form depth of G is that of H plus z, exact or interval
alike; with ``refine=True`` the brute-force depth is too, by the oracle's
torus shift, and ``is_curated`` reads only the factors.  So cd(G x T) =
cd(G), refined or not.  Per suite:

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
from typing import Callable, Iterable, Iterator, Optional

from .formulas import (
    Check,
    chain_difference,
    check_dimlen,
    check_lcd,
    check_sqrt_lower_bound,
    complex_depth_simple,
    depth,
    depth_simple,
    elem_inequalities,
    f_classical,
    is_length_eq_depth,
    lendim_formula,
    length,
    length_complex_semisimple,
    length_simple,
    smalll_deficit_negative,
)
from .groups import GroupType, SimpleType, iter_semisimple, iter_simple_types, simple
from .oracle import oracle_depth, oracle_length
from .radicals import BETA, QuadExpr
from .subgroups import CURATED_SIMPLE, is_curated, min_irrep_dim

DEFAULT_MAX_DIM = 60

# the values everything exceptional is pinned to
_EXBD_M = {"G2": 7, "F4": 31, "E6": 32, "E7": 69, "E8": 309}


def computed_length_eq_depth(g: GroupType) -> Optional[bool]:
    """Decide l(G) = depth(G) from the implementation itself (None if the
    implementation cannot resolve it, which does not happen in range)."""
    total = length(g)
    d = depth(g)
    if d.is_exact:
        return total == d.exact_value
    if total > d.upper:
        return False
    if is_curated(g):
        return total == depth(g, refine=True).exact_value
    return None


def computed_cd_is_one(g: GroupType) -> Optional[bool]:
    """Decide cd(G) = 1 from the implementation itself."""
    cd = chain_difference(g)
    if cd.is_exact:
        return cd.exact_value == 1
    if 1 not in cd:
        return False
    if is_curated(g):
        return chain_difference(g, refine=True).exact_value == 1
    return None


def _by_part(max_dim: int,
             passes: Callable[[GroupType], bool]) -> Iterator[tuple[range, list[GroupType]]]:
    """For each semisimple part H of the enumeration, its torus ranks and
    the groups H x T^z left to check one by one: none when ``passes`` holds
    at the representatives (the first rank, and 1 when the ranks start at
    0), every one in order otherwise."""
    for h, zs in iter_semisimple(max_dim):
        representatives = zs[:2] if zs[0] == 0 else zs[:1]
        if all(passes(h.with_torus(z)) for z in representatives):
            yield zs, []
        else:
            yield zs, [h.with_torus(z) for z in zs]


def _classification(name: str, max_dim: int,
                    predicate: Callable[[GroupType], bool],
                    computed: Callable[[GroupType], Optional[bool]]) -> list[Check]:
    scanned = 0
    mismatches: list[str] = []
    unresolved: list[str] = []
    for zs, groups in _by_part(max_dim, lambda g: computed(g) == predicate(g)):
        scanned += len(zs)
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


def _sweep(claim: str, max_dim: int,
           checker: Callable[[GroupType], list[Check]]) -> Check:
    """Every per-group check of ``checker`` over the enumeration, as one
    verdict on the failed ones."""
    scanned = 0
    failures: list[str] = []
    for zs, groups in _by_part(max_dim, lambda g: all(c.passed for c in checker(g))):
        scanned += len(zs)
        for g in groups:
            failures += [f"{g}: {check.claim}" for check in checker(g) if not check.passed]
    return _verdict(claim, {"max_dim": max_dim, "groups_scanned": scanned},
                    "failures", failures)


# -- individual suites -----------------------------------------------------------

def suite_general(max_dim: int) -> list[Check]:
    """Rank bounds on the length of every enumerated group."""

    def within(g: GroupType) -> bool:
        z = g.torus_rank
        r = g.rank - z
        t = sum(k for _, k in g.counts)
        total = length(g)
        return z + 2 * r <= total <= z + 3 * r - t if t else total == z

    worst = None
    scanned = 0
    for zs, groups in _by_part(max_dim, within):
        bad = next((i for i, g in enumerate(groups) if not within(g)), None)
        if bad is None:
            scanned += len(zs)
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
    return [_sweep("dimension deficit bounds over the enumeration", max_dim, check_dimlen)]


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
               check_sqrt_lower_bound),
        _verdict("elementary square-root inequalities on a rational grid",
                 {"grid": [str(q) for q in grid]}, "failures", elem_bad, None),
    ]


def suite_smalll(max_dim: int) -> list[Check]:
    """Orthogonal-product deficit: nonnegative on the whole tuple range
    except exactly at (n_1, k) = (7, 2)."""
    del max_dim  # fixed range
    negatives: list[tuple[int, ...]] = []
    checked = 0
    for k in (2, 3, 4):
        for n1 in range(7, 21):
            for rest in itertools.product(range(7, n1 + 1), repeat=k - 1):
                checked += 1
                if smalll_deficit_negative((n1, *rest)):
                    negatives.append((n1, *rest))
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
        max_dim, is_length_eq_depth, computed_length_eq_depth)


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
        max_dim, is_published_cd_one, computed_cd_is_one)


def suite_lcd(max_dim: int) -> list[Check]:
    """Semisimple length against the chain difference, over the enumeration,
    with equality spot-checked at SU(2)^k."""
    out = [_sweep("chain-difference length bounds over the enumeration", max_dim, check_lcd)]
    powers = {k: GroupType(0, ((SimpleType("SU", 2), k),)) for k in range(1, 6)}
    eq_bad = [k for k, g in powers.items()
              if length(g) != 2 * chain_difference(g).exact_value + 2]
    out.append(_verdict("equality l = 2 cd + 2 at every power of SU(2)",
                        {"k": "1..5"}, "mismatches", eq_bad, None))

    def superadditive(g: GroupType) -> bool:
        if len(g.counts) < 2:
            return True
        block_sum = sum(chain_difference(GroupType(0, ((s, k),))).exact_value
                        for s, k in g.counts)
        return chain_difference(g).lower >= block_sum

    superadd_bad = [str(g) for _, groups in _by_part(min(max_dim, 40), superadditive)
                    for g in groups if not superadditive(g)]
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
        floor = QuadExpr.sqrt(s.dim, Fraction(5, 4)) * QuadExpr.sqrt(Fraction(1, 2)) - Fraction(9, 8)
        if not QuadExpr.rational(length_simple(s)) >= floor:
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
