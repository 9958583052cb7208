"""Independent references the benchmark checks cmexpand's outputs against.

Nothing here imports cmexpand.  The ladder is replayed on integers scaled by
s**n (no Fraction, no gcd), pi-derived targets come from mpmath, and the
sequence families come from their recurrences rather than the closed forms
the library evaluates.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath


class RationalTarget:
    """t = p/q exactly; `order` gives the sign of t - a/b for b > 0."""

    def __init__(self, p: int, q: int):
        self.p, self.q = p, q

    def order(self, a: int, b: int) -> int:
        d = self.p * b - self.q * a
        return (d > 0) - (d < 0)

    def beyond(self, a: int, b: int, bound_num: int, bound_den: int) -> bool:
        """Certainly |t - a/b| > bound_num / (b * bound_den)."""
        return abs(self.p * b - self.q * a) * bound_den > self.q * bound_num

    def within(self, a: int, b: int, bound_num: int, bound_den: int) -> bool:
        return not self.beyond(a, b, bound_num, bound_den)


class RealTarget:
    """A real t known to lie strictly inside ((m - 1) / 2**P, (m + 2) / 2**P).

    m = floor(t * 2**P) is computed by mpmath with 64 guard bits, so the
    widened window is a safe enclosure.  `order` returns None when a/b falls
    inside the window, which at P far beyond the library's precision cap
    means the library cannot decide either.
    """

    def __init__(self, coefficient: Fraction | None, bits: int):
        self.bits = bits
        with mpmath.workprec(bits + 64):
            value = 1 / mpmath.pi if coefficient is None else coefficient.numerator * mpmath.pi / coefficient.denominator
            self.m = int(mpmath.floor(mpmath.ldexp(value, bits)))

    def _window(self, a: int, b: int) -> tuple[int, int]:
        """(lo, hi) with lo < (t - a/b) * b * 2**P < hi."""
        x = a << self.bits
        return (self.m - 1) * b - x, (self.m + 2) * b - x

    def order(self, a: int, b: int) -> int | None:
        lo, hi = self._window(a, b)
        if lo >= 0:
            return 1
        if hi <= 0:
            return -1
        return None

    def beyond(self, a: int, b: int, bound_num: int, bound_den: int) -> bool:
        lo, hi = self._window(a, b)
        limit = bound_num << self.bits
        return lo * bound_den > limit or -hi * bound_den > limit

    def within(self, a: int, b: int, bound_num: int, bound_den: int) -> bool:
        lo, hi = self._window(a, b)
        return max(abs(lo), abs(hi)) * bound_den <= bound_num << self.bits


def target_from_text(text: str, bits: int):
    """Reference value of an expand target written as p/q, 1/pi or c*pi."""
    if text == "1/pi":
        return RealTarget(None, bits)
    if text.endswith("*pi"):
        return RealTarget(Fraction(text[:-3]), bits)
    value = Fraction(text)
    return RationalTarget(value.numerator, value.denominator)


class Ladder:
    """Outcome of the greedy signed r/s ladder, replayed on scaled integers.

    X_n = A_n / s**n.  `status` is "ok", "nonconvergent" or "undecided".
    Only the signs are kept; `visit(n, A_n, s**n, r**n)` sees every partial
    sum as it is made, so a long run is checked without holding all of them.
    """

    def __init__(self, target, r: int, s: int, x0: str, terms: int, visit=None):
        self.r, self.s = r, s
        self.signs: list[int] = []
        self.terminated = False
        self.status = "ok"
        visit = visit or (lambda *_: None)
        a = self._start(target, x0)
        if a is None:
            self.status = "undecided"
            return
        big_s, big_r = 1, 1  # s**n and r**n
        self.x0 = a
        visit(0, a, big_s, big_r)
        if target.beyond(a, 1, 1, s - r):
            self.status = "nonconvergent"
            return
        for n in range(1, terms + 1):
            sign = target.order(a, big_s)
            if sign is None:
                self.status = "undecided"
                return
            if sign == 0:
                self.terminated = True
                return
            a = a * s + sign * big_r
            big_s *= s
            big_r *= r
            if not 0 <= a <= big_s:
                self.status = "nonconvergent"
                return
            self.signs.append(sign)
            visit(n, a, big_s, big_r)
            if target.beyond(a, big_s, big_r, s - r):
                self.status = "nonconvergent"
                return
        self.terminated = isinstance(target, RationalTarget) and target.order(a, big_s) == 0

    @staticmethod
    def _start(target, x0: str) -> int | None:
        if x0 == "zero":
            return 0
        if x0 == "one":
            return 1
        order = target.order(1, 2)
        if order is None:
            return None
        if isinstance(target, RationalTarget):
            return 0 if order <= 0 else 1
        return 0 if order < 0 else 1


def ladder_sums(target, r: int, s: int, x0: str, terms: int) -> tuple[Ladder, list[Fraction]]:
    """The ladder and its partial sums X_0..X_n as Fractions (for short runs)."""
    sums: list[Fraction] = []
    ladder = Ladder(target, r, s, x0, terms, lambda n, a, b, _: sums.append(Fraction(a, b)))
    return ladder, sums


def same_value(value: Fraction, a: int, b: int) -> bool:
    """value == a/b without building a reduced Fraction."""
    return value.numerator * b == a * value.denominator


def two_term(c1, c2, seed0, seed1, lo: int, hi: int) -> dict[int, Fraction]:
    """Values x_lo..x_hi of x_n = c1 x_{n-1} + c2 x_{n-2} with x_0, x_1 = seeds.

    Negative indices run the recurrence backwards: x_{n-2} = (x_n - c1 x_{n-1}) / c2.
    """
    c1, c2 = Fraction(c1), Fraction(c2)
    values = {0: Fraction(seed0), 1: Fraction(seed1)}
    for n in range(2, hi + 1):
        values[n] = c1 * values[n - 1] + c2 * values[n - 2]
    for n in range(-1, lo - 1, -1):
        values[n] = (values[n + 2] - c1 * values[n + 1]) / c2
    return {n: values[n] for n in range(lo, hi + 1)}


def gen_j_values(r: int, s: int, lo: int, hi: int) -> dict[int, Fraction]:
    """gen_j by its recurrence J_n = (s - r) J_{n-1} + r s J_{n-2}."""
    return two_term(s - r, r * s, 0, 1, lo, hi)


def gen_j_like_values(trace, norm, lo: int, hi: int) -> dict[int, Fraction]:
    """gen_j_like by its recurrence Jt_n = (s + r) Jt_{n-1} - r s Jt_{n-2}.

    Takes the trace s + r and the norm r s, which stay rational for the
    conjugate surd pairs a -+ b sqrt(d) (trace 2a, norm a**2 - b**2 d).
    """
    return two_term(trace, -Fraction(norm), 0, 1, lo, hi)


def lucas_values(p: Fraction, q: Fraction, hi: int) -> list[Fraction]:
    """U_0..U_hi from powers of the companion matrix [[p, -q], [1, 0]].

    M**n = [[U_{n+1}, -q U_n], [U_n, -q U_{n-1}]], so U_n is its lower-left
    entry.  Each value is read from its own matrix power, a route independent of the
    library's step-by-step unrolling.
    """
    out = []
    for n in range(hi + 1):
        out.append(_mat_pow(((p, -q), (Fraction(1), Fraction(0))), n)[1][0])
    return out


def _mat_mul(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def _mat_pow(m, n: int):
    result = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    while n:
        if n & 1:
            result = _mat_mul(result, m)
        m = _mat_mul(m, m)
        n >>= 1
    return result
