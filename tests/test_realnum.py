"""The binary-splitting pi oracle: against mpmath, its own contract, and the Fraction-sum series."""

from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmexpand.realnum import _atan_inv_enclosure, _dyadic_window, _pi_enclosure, inv_pi, pi_multiple


def fraction_sum_enclosure(x, width_bits):
    """The series summed term by term as Fractions: the reference the integer route must equal."""
    limit = F(1, 1 << width_bits)
    k = 0
    while F(1, (2 * k + 1) * x ** (2 * k + 1)) > limit:
        k += 1
    s = F(0)
    for j in range(k):
        s += F((-1) ** j, (2 * j + 1) * x ** (2 * j + 1))
    other = s + F((-1) ** k, (2 * k + 1) * x ** (2 * k + 1))
    return (s, other) if s < other else (other, s)


def reference_pi_enclosure(bits):
    lo5, hi5 = fraction_sum_enclosure(5, bits + 7)
    lo239, hi239 = fraction_sum_enclosure(239, bits + 5)
    return 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239


def mp_value(coefficient, bits):
    """1/pi (coefficient None) or c*pi, to 128 bits beyond `bits`."""
    with mpmath.workprec(bits + 128):
        if coefficient is None:
            return 1 / mpmath.pi
        return mpmath.mpf(coefficient.numerator) * mpmath.pi / coefficient.denominator


def strictly_inside(bracket, value, bits):
    """lo < value < hi, with the dyadic endpoints converted exactly."""
    lo, hi = bracket
    with mpmath.workprec(bits + 128):
        as_mp = [mpmath.mpf(v.numerator) / v.denominator for v in (lo, hi)]
        return as_mp[0] < value < as_mp[1]


WIDTHS = list(range(1, 130)) + [197, 256, 311, 512, 777, 1024, 1500, 2048]


class TestAgainstFractionSums:
    @pytest.mark.parametrize("x", (5, 239))
    def test_atan_enclosures_equal(self, x):
        for width in WIDTHS:
            assert _atan_inv_enclosure(x, width) == fraction_sum_enclosure(x, width)

    def test_brackets_equal(self):
        for bits in (8, 9, 16, 33, 64, 100, 256, 512, 1024, 2048):
            lo, hi = reference_pi_enclosure(bits)
            assert _pi_enclosure(bits) == (lo, hi)
            assert inv_pi().bracket(bits) == _dyadic_window(1 / hi, 1 / lo, bits)
            assert pi_multiple(F(1, 4)).bracket(bits) == _dyadic_window(lo / 4, hi / 4, bits)


class TestAgainstMpmath:
    @pytest.mark.parametrize("bits", [64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384])
    @pytest.mark.parametrize("coefficient", [None, F(1), F(1, 4), F(7, 22), F(5)])
    def test_strict_enclosure_and_width(self, coefficient, bits):
        real = inv_pi() if coefficient is None else pi_multiple(coefficient)
        lo, hi = real.bracket(bits)
        assert 0 < hi - lo <= F(1, 2**bits)
        assert strictly_inside((lo, hi), mp_value(coefficient, bits), bits)


class TestContract:
    @settings(max_examples=60, deadline=None)
    @given(
        requests=st.lists(st.integers(1, 1200), min_size=1, max_size=8),
        num=st.integers(1, 30),
        den=st.integers(1, 30),
        inverse=st.booleans(),
    )
    def test_nested_and_narrow(self, requests, num, den, inverse):
        coefficient = None if inverse else F(num, den)
        real = inv_pi() if inverse else pi_multiple(coefficient)
        value = mp_value(coefficient, max(requests))
        previous = None
        for bits in requests:
            lo, hi = real.bracket(bits)
            assert 0 < hi - lo <= F(1, 2**bits)
            assert strictly_inside((lo, hi), value, max(requests))
            if previous is not None:
                assert previous[0] <= lo and hi <= previous[1]
            previous = (lo, hi)
