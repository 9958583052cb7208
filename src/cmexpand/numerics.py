"""Exact scalar types: rationals, quadratic surds, finite complex values.

Rationals are plain ``fractions.Fraction`` throughout the package.  This
module adds the degree-2 extension a + b*sqrt(d) needed for the golden-ratio
and silver-ratio parameterizations, plus a validated complex constructor for
the floating continuation routines.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotRational


def check_ratio(r, s) -> None:
    """The one check on ratio and family parameters: integers with s > r >= 1."""
    if not (isinstance(r, int) and isinstance(s, int)):
        raise TypeError("r and s must be integers")
    if not s > r >= 1:
        raise ValueError(f"need s > r >= 1, got r={r}, s={s}")


def _squarefree(d: int) -> tuple[int, int]:
    """Split d into (k, m) with d = k*k*m and m square-free."""
    k, m, p = 1, d, 2
    while p * p <= m:
        while m % (p * p) == 0:
            m //= p * p
            k *= p
        p += 1
    return k, m


class QuadraticSurd:
    """Exact value a + b*sqrt(d) with rational a, b and square-free d >= 0.

    Rational values are stored canonically as (a, 0, 0): radicands with a
    square factor are reduced on construction (sqrt(8) becomes 2*sqrt(2)) and
    d in {0, 1} is absorbed into the rational part.  Ring operations between
    two irrational surds require equal d.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a, b=0, d: int = 0):
        a, b = Fraction(a), Fraction(b)
        d = int(d)
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        if b == 0 or d == 0:
            b, d = Fraction(0), 0
        else:
            k, d = _squarefree(d)
            b *= k
            if d == 1:
                a, b, d = a + b, Fraction(0), 0
        self._a, self._b, self._d = a, b, d

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @property
    def d(self) -> int:
        return self._d

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    def to_rational(self) -> Fraction:
        if self._b:
            raise NotRational(f"{self} has an irrational part")
        return self._a

    def conjugate(self) -> QuadraticSurd:
        return QuadraticSurd(self._a, -self._b, self._d)

    def _coerce(self, other):
        if isinstance(other, QuadraticSurd):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticSurd(other)
        return None

    def _common_d(self, other: QuadraticSurd) -> int:
        if self._b == 0:
            return other._d
        if other._b == 0 or self._d == other._d:
            return self._d
        raise ValueError(f"incompatible radicands {self._d} and {other._d}")

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self._common_d(other)
        return QuadraticSurd(self._a + other._a, self._b + other._b, d)

    __radd__ = __add__

    def __neg__(self) -> QuadraticSurd:
        return QuadraticSurd(-self._a, -self._b, self._d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self._common_d(other)
        return QuadraticSurd(
            self._a * other._a + self._b * other._b * d,
            self._a * other._b + self._b * other._a,
            d,
        )

    __rmul__ = __mul__

    def _inverse(self) -> QuadraticSurd:
        norm = self._a * self._a - self._b * self._b * self._d
        if norm == 0:
            raise ZeroDivisionError("division by zero surd")
        return QuadraticSurd(self._a / norm, -self._b / norm, self._d)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other._inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self._inverse()

    def __pow__(self, exponent: int) -> QuadraticSurd:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self._inverse() ** (-exponent)
        result = QuadraticSurd(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and self._a == other
        if isinstance(other, QuadraticSurd):
            return (self._a, self._b, self._d) == (other._a, other._b, other._d)
        return NotImplemented

    def __hash__(self):
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b, self._d))

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __float__(self) -> float:
        return float(self._a) + float(self._b) * math.sqrt(self._d)

    def __repr__(self) -> str:
        return f"QuadraticSurd({self._a!r}, {self._b!r}, {self._d})"

    def __str__(self) -> str:
        if self._b == 0:
            return str(self._a)
        sign = "+" if self._b >= 0 else "-"
        return f"{self._a} {sign} {abs(self._b)}*sqrt({self._d})"


def finite_complex(value) -> complex:
    """Coerce to complex, rejecting non-finite components."""
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite complex value {value!r}")
    return z
