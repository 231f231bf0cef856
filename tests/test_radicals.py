from fractions import Fraction
from math import ceil, floor, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from liechain.formulas import length
from liechain.groups import parse_group
from liechain.radicals import ALPHA, BETA, BETA_INV, QuadExpr
from liechain.suites import smalll_deficit


def sqrt_lower_bound(g):
    """The lower-bound expression beta * (sqrt(dim) - alpha)."""
    return BETA * (QuadExpr.sqrt(g.dim) - ALPHA)


def test_constant_decimals():
    assert ALPHA.decimal(4) == "4.4343..."
    assert BETA.decimal(4) == "1.7677..."
    assert abs(float(ALPHA) - 4.4343) < 1e-4
    assert abs(float(BETA) - 1.7677) < 1e-4


def test_beta_inverse():
    assert BETA * BETA_INV == QuadExpr.rational(1)


def test_sqrt_reduction():
    assert QuadExpr.sqrt(8) == QuadExpr.sqrt(2, 2)
    assert QuadExpr.sqrt(9) == QuadExpr.rational(3)
    assert QuadExpr.sqrt(Fraction(169, 8)) == QuadExpr.sqrt(2, Fraction(13, 4))
    assert QuadExpr.sqrt(0) == QuadExpr.rational(0)
    with pytest.raises(ValueError):
        QuadExpr.sqrt(-1)


def test_exact_zero_detection():
    residue = QuadExpr.rational(20) - BETA * (QuadExpr.sqrt(248) - ALPHA)
    assert residue == QuadExpr.rational(0)
    assert residue.sign() == 0


def test_sign_close_calls():
    # sqrt(2) + sqrt(3) vs sqrt(5 + 2*sqrt(6)) differ only through nesting;
    # compare squared forms instead
    lhs = (QuadExpr.sqrt(2) + QuadExpr.sqrt(3)) * (QuadExpr.sqrt(2) + QuadExpr.sqrt(3))
    rhs = QuadExpr.rational(5) + QuadExpr.sqrt(6, 2)
    assert lhs == rhs
    tight = QuadExpr.sqrt(10001, 100) - QuadExpr.sqrt(10000, 100) - Fraction(1, 2)
    assert tight.sign() == -1


def test_comparisons():
    assert QuadExpr.sqrt(2) < QuadExpr.sqrt(3)
    assert QuadExpr.sqrt(2) + QuadExpr.sqrt(3) > 3
    assert QuadExpr.rational(Fraction(7, 2)) >= Fraction(7, 2)
    assert not QuadExpr.sqrt(2) >= 2


def test_multiplication_cross_terms():
    x = QuadExpr.sqrt(6) * QuadExpr.sqrt(10)
    assert x == QuadExpr.sqrt(15, 2)
    square = ALPHA * ALPHA
    assert square == QuadExpr.rational(376) - QuadExpr.sqrt(31, 64)


def test_decimal_rendering():
    assert QuadExpr.rational(Fraction(1, 4)).decimal(4) == "0.2500"
    assert QuadExpr.rational(-3).decimal(2) == "-3.00"
    assert QuadExpr.sqrt(2).decimal(4) == "1.4142..."
    assert (-QuadExpr.sqrt(2)).decimal(4) == "-1.4142..."


def test_str_forms():
    assert str(QuadExpr.sqrt(2, -1) + 1) == "1 - sqrt(2)"
    assert str(QuadExpr.rational(0)) == "0"


@given(st.integers(min_value=0, max_value=400), st.integers(min_value=0, max_value=400))
def test_sqrt_multiplicative(a, b):
    assert QuadExpr.sqrt(a) * QuadExpr.sqrt(b) == QuadExpr.sqrt(a * b)


@given(st.integers(min_value=1, max_value=500))
def test_sign_matches_float(n):
    x = QuadExpr.sqrt(n) - Fraction(10**6, 10**6) * 22  # sqrt(n) - 22
    assert x.sign() == (1 if n > 484 else (-1 if n < 484 else 0))


def _bounds_sign(x: QuadExpr) -> int:
    """Reference: the sign decided by the Fraction interval of ``bounds`` at
    precisions 16, 32, ..., with the same stopping rule as ``sign``."""
    if not x.terms:
        return 0
    if x.is_rational:
        q = x.terms[0][1]  # the one term, over sqrt(1)
        return (q > 0) - (q < 0)
    prec = 16
    while prec <= 1 << 20:
        lo, hi = x.bounds(prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec *= 2
    raise ArithmeticError(f"sign of {x} undecided")


_coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=24)
_radical_sums = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2000), _coefficients), max_size=5,
).map(lambda parts: sum((QuadExpr.sqrt(m, c) for m, c in parts), QuadExpr()))


@given(_radical_sums)
def test_integer_sign_agrees_with_bounds(x):
    assert x.sign() == _bounds_sign(x)
    assert (-x).sign() == -x.sign()


@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=1, max_value=40),
       st.integers(min_value=-1, max_value=1))
def test_integer_sign_near_cancellation(n, digits, offset):
    # sqrt(n) against a rational approximant good to about 10**-digits, so the
    # decision needs rising precision
    scale = 10**digits
    approx = QuadExpr.rational(Fraction(isqrt(n * scale * scale) + offset, scale))
    x = QuadExpr.sqrt(n) - approx
    assert x.sign() == _bounds_sign(x)


def test_sign_boundary_cases():
    e8 = parse_group("E8")
    residue = QuadExpr.rational(length(e8)) - sqrt_lower_bound(e8)
    assert residue.sign() == _bounds_sign(residue) == 0
    assert QuadExpr.rational(20) >= sqrt_lower_bound(e8)
    assert not QuadExpr.rational(20) > sqrt_lower_bound(e8)
    # E8 attains the bound exactly
    assert sqrt_lower_bound(parse_group("E8")) == QuadExpr.rational(20)
    for ns, expected in (((7, 7), -1), ((8, 7), 1), ((7, 7, 7), 1)):
        deficit = smalll_deficit(ns)
        assert deficit.sign() == _bounds_sign(deficit) == expected, ns


@given(_radical_sums)
def test_floor_and_ceil_within_the_bounds(x):
    f, c = x.floor(), x.ceil()
    for prec in (8, 16, 64):
        lo, hi = x.bounds(prec)
        assert floor(lo) <= f <= floor(hi)
        assert ceil(lo) <= c <= ceil(hi)
    # exact: f <= x < f + 1 and c - 1 < x <= c, equal only when x is an integer
    assert (x - f).sign() >= 0 > (x - (f + 1)).sign()
    assert (x - c).sign() <= 0 < (x - (c - 1)).sign()
    assert (f == c) == (x - f == 0)


@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=1, max_value=40),
       st.integers(min_value=-1, max_value=1))
def test_floor_near_an_integer(n, digits, offset):
    # sqrt(n) shifted by a rational approximant to within about 10**-digits
    # of an integer, so both ends of the interval need rising precision
    scale = 10**digits
    shift = Fraction(isqrt(n * scale * scale) + offset, scale) - 7
    x = QuadExpr.sqrt(n) - shift
    assert x.floor() == _bounds_floor(x)
    assert x.ceil() == -_bounds_floor(-x)


def _bounds_floor(x: QuadExpr) -> int:
    """Reference: the common floor of the Fraction interval of ``bounds``
    at rising precision, or the floor of a rational value."""
    if x.is_rational:
        return floor(x.terms[0][1]) if x.terms else 0
    prec = 16
    while True:
        lo, hi = x.bounds(prec)
        if floor(lo) == floor(hi):
            return floor(lo)
        prec *= 2


def test_floor_at_exact_integers():
    assert (BETA * (QuadExpr.sqrt(248) - ALPHA)).floor() == 20  # E8: rational 20
    assert (BETA * (QuadExpr.sqrt(248) - ALPHA)).ceil() == 20
    assert QuadExpr.rational(Fraction(-7, 2)).floor() == -4
    assert QuadExpr.rational(Fraction(-7, 2)).ceil() == -3
    assert QuadExpr().floor() == QuadExpr().ceil() == 0
    assert QuadExpr.sqrt(2).floor() == 1 and (-QuadExpr.sqrt(2)).floor() == -2


@settings(max_examples=40, deadline=None)
@given(_radical_sums)
def test_floor_against_sympy(x):
    sympy = pytest.importorskip("sympy")
    value = sum((sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(m)
                 for m, c in x.terms), sympy.Integer(0))
    assert x.floor() == int(sympy.floor(value))
    assert x.ceil() == int(sympy.ceiling(value))
