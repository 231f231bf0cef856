"""Acceptance criteria, one test per criterion.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -s`` to stream
them) and asserts at the stated tolerance, including the runtime limits.

Criterion 7's chain-difference clause checks the corrected list: SU(3) and
SU(2)^2, up to torus.  The published list also names SU(3) x SU(2), whose
chain difference is 6 - 4 = 2 (SU(3) x SU(2) > SU(2)^2 > SU(2) > T > 1 is
unrefinable); test_cd_certificate.py certifies both witness chains
independently of the subgroup database.
"""

import itertools
import time

from liechain.chains import max_chain, min_chain, verify_chain
from liechain.formulas import (
    chain_difference,
    depth,
    depth_simple,
    f_classical,
    is_cd_one,
    is_length_eq_depth,
    length,
    length_complex_semisimple,
    length_simple,
    smalll_deficit,
)
from liechain.groups import (
    GroupType,
    SimpleType,
    iter_groups,
    iter_simple_types,
    parse_group,
    product,
    simple,
    torus,
)
from liechain.oracle import oracle_depth, oracle_length
from liechain.radicals import ALPHA, BETA, BETA_INV, QuadExpr
from liechain.subgroups import CURATED_SIMPLE, is_curated, min_irrep_dim


def _report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" — {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_exceptional_lengths():
    expected = {"G2": 5, "F4": 11, "E6": 13, "E7": 17, "E8": 20}
    groups = {name: parse_group(name) for name in expected}
    for g in groups.values():
        length(g)  # warm
    start = time.perf_counter()
    values = {name: length(g) for name, g in groups.items()}
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: exceptional lengths (5, 11, 13, 17, 20)",
        values == expected and elapsed < 1e-3,
        f"values={values}, {elapsed * 1e6:.0f}us",
    )


def test_criterion_2_classical_lengths_and_witnesses():
    start = time.perf_counter()
    checked = 0
    for family, degrees in (("SU", range(2, 51)), ("Sp", range(4, 51, 2)),
                            ("SO", range(7, 51))):
        for n in degrees:
            g = simple(family, n)
            assert length(g) == f_classical(family, n), (family, n)
            chain = max_chain(g)
            assert len(chain) == f_classical(family, n), (family, n)
            assert verify_chain(chain).overall in ("valid", "valid-modulo-unknown")
            checked += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2: classical lengths with verified witness chains (n <= 50)",
        elapsed < 1.0,
        f"{checked} groups in {elapsed:.2f}s",
    )


def test_criterion_3_oracle_equivalence_on_curated_products():
    base = [torus(k) for k in range(1, 6)] + [
        GroupType(0, ((s, 1),)) for s in sorted(CURATED_SIMPLE, key=lambda s: s.sort_key)]
    start = time.perf_counter()
    scope, seen = [], set()
    for r in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(base, r):
            g = product(combo)
            if g not in seen:
                seen.add(g)
                scope.append(g)
    mismatches = []
    for g in scope:
        if oracle_length(g) != length(g):
            mismatches.append(f"length({g})")
        brute = oracle_depth(g)
        if g.is_simple:
            if brute != depth_simple(g.simple_factor):
                mismatches.append(f"depth({g})")
        else:
            window = depth(g)
            if brute not in window or (window.is_exact and brute != window.exact_value):
                mismatches.append(f"depth({g})")
    elapsed = time.perf_counter() - start
    _report(
        "criterion 3: brute force equals formulas on curated products (<= 3 factors)",
        not mismatches and elapsed < 30.0,
        f"{len(scope)} groups in {elapsed:.2f}s, mismatches={mismatches[:5]}",
    )


def test_criterion_4_depth_table_and_minimal_witnesses():
    def stated_depth(s: SimpleType) -> int:
        if s == SimpleType("SU", 2):
            return 2
        if s == SimpleType("SU", 7):
            return 5
        if (s.family == "SU" and s.degree >= 4) or s == SimpleType("SO", 7) \
                or (s.family == "SO" and s.degree % 2 == 0 and s.degree >= 8) \
                or s.family == "E6":
            return 4
        return 3

    bad = [str(s) for s in iter_simple_types(max_degree=60)
           if depth_simple(s) != stated_depth(s) or depth_simple(s) not in (2, 3, 4, 5)]
    witness_specs = ["SU(2)", "SU(3)", "SU(7)", "Sp(4)", "Sp(6)", "SO(7)",
                     "SO(8)", "SO(9)", "E6", "G2", "F4"]
    unwitnessed = []
    for spec in witness_specs:
        g = parse_group(spec)
        chain = min_chain(g)
        if chain is None or len(chain) != depth(g).exact_value \
                or verify_chain(chain).overall not in ("valid", "valid-modulo-unknown"):
            unwitnessed.append(spec)
    _report(
        "criterion 4: simple depth table (degree <= 60) with minimal witnesses",
        not bad and not unwitnessed,
        f"table mismatches={bad[:5]}, unwitnessed={unwitnessed}",
    )


def test_criterion_5_homogeneous_depths():
    bad = []
    for k in range(1, 6):
        if oracle_depth(parse_group(f"SU(2)^{k}")) != k + 1:
            bad.append(f"SU(2)^{k}")
        if oracle_depth(parse_group(f"SU(3)^{k}")) != k + 2:
            bad.append(f"SU(3)^{k}")
    _report(
        "criterion 5: homogeneous depths SU(2)^k -> k+1, SU(3)^k -> k+2 (k <= 5)",
        not bad,
        f"mismatches={bad}",
    )


def test_criterion_6_radical_equalities():
    e8_bound = BETA * (QuadExpr.sqrt(248) - ALPHA)
    e8_equal = e8_bound == QuadExpr.rational(20)
    f4_bound = BETA * (QuadExpr.sqrt(52) - 1)
    f4_strict = QuadExpr.rational(11) > f4_bound
    _report(
        "criterion 6: E8 attains the bound exactly, F4 strictly exceeds it",
        e8_equal and f4_strict,
        f"E8 bound = {e8_bound.decimal(4)}, F4 bound = {f4_bound.decimal(4)}",
    )


def _resolved_length_eq_depth(g: GroupType) -> bool:
    total = length(g)
    window = depth(g)
    if window.is_exact:
        return total == window.exact_value
    if total > window.upper:
        return False
    return total == depth(g, refine=True).exact_value


def _resolved_cd_is_one(g: GroupType) -> bool:
    window = chain_difference(g)
    if window.is_exact:
        return window.exact_value == 1
    if 1 not in window:
        return False
    return chain_difference(g, refine=True).exact_value == 1


def test_criterion_7_length_equals_depth_classification():
    start = time.perf_counter()
    mismatches = [str(g) for g in iter_groups(60)
                  if _resolved_length_eq_depth(g) != is_length_eq_depth(g)]
    elapsed = time.perf_counter() - start
    _report(
        "criterion 7 (l = depth): exactly the tori and SU(2) x torus (dim <= 60)",
        not mismatches and elapsed < 60.0,
        f"{elapsed:.2f}s, mismatches={mismatches[:5]}",
    )


def test_criterion_7_chain_difference_classification():
    start = time.perf_counter()
    mismatches = [str(g) for g in iter_groups(60)
                  if _resolved_cd_is_one(g) != is_cd_one(g)]
    elapsed = time.perf_counter() - start
    _report(
        "criterion 7 (cd = 1): exactly SU(3), SU(2)^2, up to torus (dim <= 60)",
        not mismatches and elapsed < 60.0,
        f"{elapsed:.2f}s, mismatches={mismatches[:3]}"
        " (computed cd(SU(3) x SU(2)) = 2 via SU(3) x SU(2) > SU(2)^2 > SU(2) > T > 1)",
    )


def test_criterion_8_length_vs_chain_difference_bound():
    failures = []
    for g in iter_groups(60):
        cd_low = chain_difference(g, refine=is_curated(g)).lower
        l_ss = length(g.semisimple_part)
        if l_ss > 2 * cd_low + 2:
            failures.append(f"linear: {g}")
        quad = BETA_INV * (2 * cd_low + 2) + ALPHA
        if QuadExpr.rational(g.semisimple_part.dim) > quad * quad:
            failures.append(f"quadratic: {g}")
    equality_missed = [
        k for k in range(1, 6)
        if length(parse_group(f"SU(2)^{k}"))
        != 2 * chain_difference(parse_group(f"SU(2)^{k}")).exact_value + 2]
    _report(
        "criterion 8: l(G') <= 2 cd + 2 and the quadratic dimension bound (dim <= 60)",
        not failures and not equality_missed,
        f"failures={failures[:5]}, equality_missed={equality_missed}",
    )


def test_criterion_9_orthogonal_product_deficit():
    start = time.perf_counter()
    negatives = []
    checked = 0

    def tuples(k):
        def rec(prefix):
            if len(prefix) == k:
                yield prefix
                return
            for n in range(7, prefix[0] + 1):
                yield from rec(prefix + (n,))
        for n1 in range(7, 21):
            yield from rec((n1,))

    for k in (2, 3, 4):
        for ns in tuples(k):
            checked += 1
            if smalll_deficit(ns).sign() < 0:
                negatives.append(ns)
    elapsed = time.perf_counter() - start
    ok = negatives == [(7, 7)] and elapsed < 10.0
    _report(
        "criterion 9: deficit nonnegative except exactly at (n_1, k) = (7, 2)",
        ok,
        f"{checked} tuples in {elapsed:.2f}s, negatives={negatives}",
    )


def test_criterion_10_compact_below_complex():
    bad = [str(s) for s in iter_simple_types(max_degree=40)
           if not length_simple(s) < length_complex_semisimple(simple(s.family, s.degree))]
    _report(
        "criterion 10: compact length below complexified length (degree <= 40)",
        not bad,
        f"mismatches={bad[:5]}",
    )


def test_criterion_11_representation_tables():
    growth_bad = []
    for h in iter_simple_types(max_degree=30):
        if not h.is_classical:
            continue
        n_min = min_irrep_dim(h)
        for fam in ("SU", "Sp", "SO"):
            if fam == "Sp" and (n_min % 2 or n_min < 4):
                continue
            if fam == "SO" and n_min < 7:
                continue
            if not f_classical(fam, n_min) > f_classical(h.family, h.degree):
                growth_bad.append(f"{h}->{fam}({n_min})")
    expected_m = {"G2": 7, "F4": 31, "E6": 32, "E7": 69, "E8": 309}
    cutoff_bad = []
    for family, m_expected in expected_m.items():
        s = SimpleType(family)
        n_min = min_irrep_dim(s)
        candidates = [f_classical("SU", n_min)]
        if n_min >= 4 and n_min % 2 == 0:
            candidates.append(f_classical("Sp", n_min))
        if n_min >= 7:
            candidates.append(f_classical("SO", n_min))
        if min(candidates) != m_expected or not length_simple(s) < m_expected:
            cutoff_bad.append(family)
    _report(
        "criterion 11: representation-jump inequalities and cut-off row (7, 31, 32, 69, 309)",
        not growth_bad and not cutoff_bad,
        f"growth={growth_bad[:5]}, cutoffs={cutoff_bad}",
    )
