"""Exact arithmetic on Q-linear combinations of square roots.

Values are stored as sums  sum_i  c_i * sqrt(m_i)  with rational c_i and
distinct squarefree integer radicands m_i (m = 1 is the rational part).
Since square roots of distinct squarefree integers are linearly independent
over Q, such a sum is zero exactly when it has no terms; the sign of a
nonzero sum is decided by interval arithmetic with integer square-root
bounds at increasing precision, which always terminates.  Equalities like
the one attained at E8 are therefore decided exactly, with no float error.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, isqrt, lcm
from typing import Union

from .errors import Frozen

Rational = Union[int, Fraction]


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s*s*m with m squarefree; returns (s, m).  n must be positive."""
    s, m = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                m *= d
        d += 1 if d == 2 else 2
    return s, m * n


class QuadExpr(Frozen):
    """Immutable exact value of the form  sum c_i * sqrt(m_i)."""

    __slots__ = ("terms",)
    terms: tuple[tuple[int, Fraction], ...]

    def __init__(self, terms: tuple[tuple[int, Fraction], ...] = ()):
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def _build(parts: dict[int, Fraction]) -> "QuadExpr":
        clean = tuple(sorted((m, c) for m, c in parts.items() if c))
        return QuadExpr(clean)

    @classmethod
    def rational(cls, value: Rational) -> "QuadExpr":
        q = Fraction(value)
        return cls._build({1: q})

    @classmethod
    def sqrt(cls, radicand: Rational, coeff: Rational = 1) -> "QuadExpr":
        """coeff * sqrt(radicand) for a nonnegative rational radicand."""
        r = Fraction(radicand)
        if r < 0:
            raise ValueError("negative radicand")
        if r == 0:
            return cls._build({})
        # sqrt(p/q) = sqrt(p*q)/q
        s, m = _squarefree_split(r.numerator * r.denominator)
        return cls._build({m: Fraction(coeff) * Fraction(s, r.denominator)})

    # -- ring operations -----------------------------------------------------

    def _as_expr(self, other) -> "QuadExpr":
        if isinstance(other, QuadExpr):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExpr.rational(other)
        return NotImplemented

    def __add__(self, other) -> "QuadExpr":
        o = self._as_expr(other)
        if o is NotImplemented:
            return NotImplemented
        parts = dict(self.terms)
        for m, c in o.terms:
            parts[m] = parts.get(m, Fraction(0)) + c
        return self._build(parts)

    __radd__ = __add__

    def __neg__(self) -> "QuadExpr":
        return QuadExpr(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other) -> "QuadExpr":
        o = self._as_expr(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "QuadExpr":
        return (-self) + other

    def __mul__(self, other) -> "QuadExpr":
        o = self._as_expr(other)
        if o is NotImplemented:
            return NotImplemented
        parts: dict[int, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in o.terms:
                s, m = _squarefree_split(m1 * m2)
                coeff = c1 * c2 * s
                parts[m] = parts.get(m, Fraction(0)) + coeff
        return self._build(parts)

    __rmul__ = __mul__

    # -- sign and comparisons --------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return all(m == 1 for m, _ in self.terms)

    def bounds(self, prec_bits: int) -> tuple[Fraction, Fraction]:
        """Rational lower/upper bounds tight to about 2**-prec_bits per term."""
        den, scaled = self._scaled()
        lo, hi = self._int_bounds(scaled, prec_bits)
        return Fraction(lo, den << prec_bits), Fraction(hi, den << prec_bits)

    def _scaled(self) -> tuple[int, list[tuple[int, int]]]:
        """(den, [(m, a)]): the terms as integers a = c * den over the
        common denominator den of the coefficients."""
        den = lcm(*(c.denominator for _, c in self.terms))
        return den, [(m, c.numerator * (den // c.denominator)) for m, c in self.terms]

    @staticmethod
    def _int_bounds(scaled: list[tuple[int, int]], prec: int) -> tuple[int, int]:
        """``bounds(prec)`` times den * 2**prec, in integers."""
        lo = hi = 0
        for m, a in scaled:
            if m == 1:
                lo += a << prec
                hi += a << prec
                continue
            s = isqrt(m << (2 * prec))
            if a >= 0:
                lo += a * s
                hi += a * (s + 1)
            else:
                lo += a * (s + 1)
                hi += a * s
        return lo, hi

    def sign(self) -> int:
        """Exact sign.  Same decision as comparing ``bounds(prec)`` with 0 at
        prec = 16, 32, ..., but over the terms scaled to integers by their
        common denominator and by 2**prec, so no Fraction is built."""
        if not self.terms:
            return 0
        if self.is_rational:
            q = self.terms[0][1]
            return (q > 0) - (q < 0)
        _, scaled = self._scaled()
        prec = 16
        while prec <= 1 << 20:
            lo, hi = self._int_bounds(scaled, prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2
        raise ArithmeticError(f"sign of {self} undecided at limit precision")

    def floor(self) -> int:
        """Exact floor.  A rational value is floored directly.  An irrational
        one lies strictly inside every ``bounds(prec)`` interval and is no
        integer (1 and the square roots of distinct squarefree integers are
        linearly independent over Q), so raising the precision until both
        ends have the same floor terminates."""
        if self.is_rational:
            return floor(self.terms[0][1]) if self.terms else 0
        den, scaled = self._scaled()
        prec = 16
        while prec <= 1 << 20:
            lo, hi = self._int_bounds(scaled, prec)
            unit = den << prec
            low = lo // unit
            if low == hi // unit:
                return low
            prec *= 2
        raise ArithmeticError(f"floor of {self} undecided at limit precision")

    def ceil(self) -> int:
        """Exact ceiling: minus the floor of the negation."""
        return -(-self).floor()

    def __eq__(self, other) -> bool:
        o = self._as_expr(other)
        if o is NotImplemented:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(self.terms)

    def __lt__(self, other) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - other).sign() >= 0

    # -- rendering ---------------------------------------------------------------

    def __float__(self) -> float:
        lo, hi = self.bounds(64)
        return float((lo + hi) / 2)

    def decimal(self, places: int = 4) -> str:
        """Decimal rendering truncated toward zero; trailing "..." if inexact."""
        if not self.terms:
            return "0." + "0" * places
        if self.is_rational:
            q = self.terms[0][1]
            scaled = abs(q) * 10**places
            digits = scaled.numerator // scaled.denominator
            exact = scaled.denominator == 1
        else:
            prec = 64
            while True:
                lo, hi = self.bounds(prec)
                a = abs(lo) * 10**places
                b = abs(hi) * 10**places
                da, db = (a.numerator // a.denominator), (b.numerator // b.denominator)
                if da == db:
                    digits = da
                    break
                prec *= 2
            exact = False
        sign = "-" if self.sign() < 0 else ""
        whole, frac = divmod(digits, 10**places)
        body = f"{sign}{whole}.{frac:0{places}d}"
        return body if exact else body + "..."

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            if m == 1:
                atom = str(c)
            elif c == 1:
                atom = f"sqrt({m})"
            elif c == -1:
                atom = f"-sqrt({m})"
            else:
                atom = f"{c}*sqrt({m})"
            parts.append(atom)
        out = parts[0]
        for atom in parts[1:]:
            out += " - " + atom[1:] if atom.startswith("-") else " + " + atom
        return out

    def __repr__(self) -> str:
        return f"QuadExpr({str(self)})"


# the two constants appearing in the dimension-length bounds:
#   ALPHA = sqrt(248) - sqrt(128) = 4.4343...
#   BETA  = 5 * 2**(-3/2)         = 1.7677...
ALPHA = QuadExpr.sqrt(248) - QuadExpr.sqrt(128)
BETA = QuadExpr.sqrt(2, Fraction(5, 4))
BETA_INV = QuadExpr.sqrt(2, Fraction(2, 5))
BETA_ALPHA = BETA * ALPHA
