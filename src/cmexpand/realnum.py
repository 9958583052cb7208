"""Bracketed real constants: pi-derived targets as nested rational enclosures.

A :class:`PrecisionReal` never exposes a floating value for decisions; every
question about it is answered through a rational bracket (lo, hi) with
lo < value < hi.  The wrapper guarantees two properties regardless of the
underlying oracle: brackets are nested across refinements, and a bracket
requested at ``bits`` has width at most 2**-bits.

The pi oracles use Machin's formula.  Each arctan series is summed exactly
on integers by binary splitting (Haible and Papanikolaou, ANTS 1998), then
divided once; the enclosures are the same rationals a term-by-term Fraction
sum gives.  The brackets they hand out are dyadic windows (denominator a
power of two), which the engine holds as integer endpoints scaled by s**n.
"""

from __future__ import annotations

import math
import threading
from enum import Enum
from fractions import Fraction
from typing import Callable

Bracket = tuple[Fraction, Fraction]


class Comparison(Enum):
    LESS = -1
    UNDECIDED = 0
    GREATER = 1


class PrecisionReal:
    """An irrational constant known only through rational enclosures.

    ``oracle(bits)`` must return a strict enclosure of the value with width
    at most 2**-bits.  Successive enclosures are intersected with the best
    one seen, so refinement can only shrink a previously returned bracket.
    """

    def __init__(self, name: str, oracle: Callable[[int], Bracket]):
        self._name = name
        self._oracle = oracle
        self._lock = threading.Lock()
        self._best: Bracket | None = None

    @property
    def name(self) -> str:
        return self._name

    def bracket(self, bits: int) -> Bracket:
        if bits < 1:
            raise ValueError("bits must be positive")
        cap = Fraction(1, 1 << bits)
        with self._lock:
            if self._best is not None and self._best[1] - self._best[0] <= cap:
                return self._best
            lo, hi = self._oracle(bits)
            if self._best is not None:
                lo, hi = max(lo, self._best[0]), min(hi, self._best[1])
            if not lo < hi:
                raise ValueError(f"oracle for {self._name} produced an empty enclosure")
            if hi - lo > cap:
                raise ValueError(f"oracle for {self._name} missed the requested width")
            self._best = (lo, hi)
            return self._best

    def __float__(self) -> float:
        lo, hi = self.bracket(64)
        return float((lo + hi) / 2)

    def __repr__(self) -> str:
        return f"PrecisionReal({self._name!r}, ~{float(self):.12g})"


def real_compare(value: PrecisionReal, x, max_bits: int = 256) -> Comparison:
    """Order `value` against a rational, doubling precision up to max_bits.

    Returns LESS or GREATER only once a bracket excludes x; UNDECIDED means
    x was still inside the enclosure at max_bits.
    """
    if max_bits < 8:
        raise ValueError("max_bits must be at least 8")
    x = Fraction(x)
    bits = 8
    while True:
        lo, hi = value.bracket(bits)
        if hi <= x:
            return Comparison.LESS
        if x <= lo:
            return Comparison.GREATER
        if bits >= max_bits:
            return Comparison.UNDECIDED
        bits = min(bits * 2, max_bits)


def _series_terms(x: int, width_bits: int) -> int:
    """Least k with (2k+1) * x**(2k+1) >= 2**width_bits: arctan(1/x)'s k-th term is within 2**-width_bits."""
    limit = 1 << width_bits
    k = max(0, int(width_bits / (2 * math.log2(x))) - 1)  # a guess; the exact steps below settle k

    def small(j: int) -> bool:
        return (2 * j + 1) * x ** (2 * j + 1) < limit

    while k > 0 and not small(k - 1):
        k -= 1
    while small(k):
        k += 1
    return k


def _atan_split(x2: int, a: int, b: int) -> tuple[int, int, int]:
    """Binary splitting of the arctan(1/x) terms a..b-1, with x2 = x*x.

    Returns (T, Q, P) with Q = (2a+1)(2a+3)...(2b-1), P = x2**(b-a) and
    sum_{a <= j < b} (-1)**j / ((2j+1) x**(2j+1)) = (-1)**a T / (Q x**(2b-1)).
    """
    if b - a == 1:
        return 1, 2 * a + 1, x2
    m = (a + b) // 2
    t1, q1, p1 = _atan_split(x2, a, m)
    t2, q2, p2 = _atan_split(x2, m, b)
    if (m - a) & 1:
        t2 = -t2
    return t1 * q2 * p2 + t2 * q1, q1 * q2, p1 * p2


def _atan_inv_enclosure(x: int, width_bits: int) -> Bracket:
    """Strict enclosure of arctan(1/x) from consecutive alternating partial sums.

    The partial sum of the first k terms is one endpoint and the next
    partial sum the other, with k the least count whose next term is at
    most 2**-width_bits.  The k terms are summed exactly on integers by
    binary splitting and divided once.
    """
    k = _series_terms(x, width_bits)
    s = Fraction(0)
    if k:
        t, q, _ = _atan_split(x * x, 0, k)
        s = Fraction(t, q * x ** (2 * k - 1))
    other = s + Fraction((-1) ** k, (2 * k + 1) * x ** (2 * k + 1))
    return (s, other) if s < other else (other, s)


def _pi_enclosure(bits: int) -> Bracket:
    """Machin enclosure of pi with width at most 2**-(bits+2)."""
    lo5, hi5 = _atan_inv_enclosure(5, bits + 7)
    lo239, hi239 = _atan_inv_enclosure(239, bits + 5)
    return 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239


def _dyadic_window(lo: Fraction, hi: Fraction, bits: int) -> Bracket:
    """Dyadic bracket of width exactly 2**-bits around a tight raw enclosure.

    Keeps endpoint sizes bounded and keeps low-precision brackets honestly
    wide, so comparisons below the requested precision stay undecided.
    Requires hi - lo <= 2**-(bits+2).
    """
    grain = 1 << (bits + 2)
    lo_grid = Fraction(math.floor(lo * grain), grain)
    return lo_grid, lo_grid + Fraction(1, 1 << bits)


def pi_multiple(coefficient) -> PrecisionReal:
    """The constant c*pi for a positive rational c."""
    c = Fraction(coefficient)
    if c <= 0:
        raise ValueError("coefficient must be positive")

    def oracle(bits: int) -> Bracket:
        extra = max(0, (c.numerator // c.denominator).bit_length())
        lo, hi = _pi_enclosure(bits + extra)
        return _dyadic_window(c * lo, c * hi, bits)

    name = "pi" if c == 1 else f"{c}*pi"
    return PrecisionReal(name, oracle)


def pi() -> PrecisionReal:
    return pi_multiple(1)


def inv_pi() -> PrecisionReal:
    """The constant 1/pi."""

    def oracle(bits: int) -> Bracket:
        lo, hi = _pi_enclosure(bits)
        return _dyadic_window(1 / hi, 1 / lo, bits)

    return PrecisionReal("1/pi", oracle)
