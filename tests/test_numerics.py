import math
from fractions import Fraction as F

import pytest

from cmexpand.errors import NotRational
from cmexpand.numerics import QuadraticSurd, finite_complex
from cmexpand.realnum import (
    Comparison,
    PrecisionReal,
    inv_pi,
    pi,
    pi_multiple,
    real_compare,
)

PHI = QuadraticSurd(F(1, 2), F(1, 2), 5)       # (1+sqrt5)/2
PSI = QuadraticSurd(F(1, 2), F(-1, 2), 5)      # (1-sqrt5)/2
SILVER = QuadraticSurd(1, 1, 2)                # 1+sqrt2


class TestRationalContract:
    # fractions.Fraction carries the canonical-form contract; pin it down.

    def test_reduced_on_construction(self):
        assert F(2, 4) == F(1, 2)
        assert F(2, 4).denominator == 2

    def test_denominator_positive(self):
        q = F(3, -6)
        assert q.denominator == 2 and q.numerator == -1

    def test_arithmetic_stays_canonical(self):
        pairs = [(F(1, 6), F(1, 3)), (F(-2, 5), F(7, 10)), (F(0), F(4, 9))]
        for a, b in pairs:
            for value in (a + b, a * b, a - b):
                assert math.gcd(value.numerator, value.denominator) == 1
                assert value.denominator > 0


class TestQuadraticSurd:
    def test_square_factor_normalized(self):
        x = QuadraticSurd(0, 1, 8)
        assert (x.a, x.b, x.d) == (0, 2, 2)

    def test_d_zero_and_one_absorbed(self):
        assert QuadraticSurd(3, 7, 0) == F(3)
        assert QuadraticSurd(3, 7, 1) == F(10)
        assert QuadraticSurd(3, 7, 9) == F(24)

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            QuadraticSurd(0, 1, -2)

    def test_rational_equality_and_hash(self):
        five = QuadraticSurd(5, 0, 5)
        assert five == F(5) == 5
        assert hash(five) == hash(F(5))

    def test_pow_examples(self):
        assert PHI ** 0 == 1
        assert PHI ** 2 == QuadraticSurd(F(3, 2), F(1, 2), 5)
        assert SILVER ** 3 == QuadraticSurd(7, 5, 2)

    def test_pow_additivity(self):
        for x in (PHI, SILVER):
            for m in range(-4, 5):
                for n in range(-4, 5):
                    assert x ** (m + n) == x ** m * x ** n

    def test_to_rational(self):
        assert QuadraticSurd(5, 0, 5).to_rational() == 5
        fib3 = (PHI ** 3 - PSI ** 3) / QuadraticSurd(0, 1, 5)
        assert fib3.to_rational() == 2
        with pytest.raises(NotRational):
            SILVER.to_rational()

    def test_division_round_trip(self):
        for x in (PHI, SILVER, QuadraticSurd(F(-2, 3), F(1, 7), 3)):
            assert (x * x) / x == x
            assert 1 / x * x == 1

    def test_mixed_radicands_rejected(self):
        with pytest.raises(ValueError):
            PHI + SILVER
        # rational surds combine with anything
        assert QuadraticSurd(2, 0, 5) + SILVER == QuadraticSurd(3, 1, 2)

    def test_conjugate_norm(self):
        assert PHI * PHI.conjugate() == F(-1)
        assert SILVER * SILVER.conjugate() == F(-1)

    def test_float_value(self):
        assert float(PHI) == pytest.approx((1 + math.sqrt(5)) / 2)


class TestFiniteComplex:
    def test_accepts_finite(self):
        assert finite_complex(2) == 2 + 0j
        assert finite_complex(1.5 - 2j) == 1.5 - 2j

    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), complex(0, float("inf"))):
            with pytest.raises(ValueError):
                finite_complex(bad)


class TestBrackets:
    def test_width_bound(self):
        value = pi()
        for bits in (8, 16, 64, 128, 256):
            lo, hi = value.bracket(bits)
            assert hi - lo <= F(1, 2**bits)
            assert lo < hi

    def test_contains_pi(self):
        lo, hi = pi().bracket(64)
        assert lo < F(314159265358979323846, 10**20) < hi

    def test_nested_refinement(self):
        value = inv_pi()
        previous = None
        for bits in (8, 16, 32, 64, 128, 256):
            lo, hi = value.bracket(bits)
            if previous is not None:
                assert previous[0] <= lo and hi <= previous[1]
            previous = (lo, hi)

    def test_refinement_never_widens_even_for_sloppy_oracle(self):
        # an oracle whose raw enclosures jitter side to side; the wrapper
        # must still hand out nested brackets
        from cmexpand.realnum import _pi_enclosure

        calls = {"n": 0}

        def jittery(bits):
            lo, hi = _pi_enclosure(bits + 4)
            pad = F(1, 2 ** (bits + 3))
            calls["n"] += 1
            if calls["n"] % 2:
                return lo - pad, lo - pad + F(1, 2**bits)
            return hi + pad - F(1, 2**bits), hi + pad

        value = PrecisionReal("jittery-pi", jittery)
        previous = None
        for bits in (8, 12, 16, 24, 48, 96):
            lo, hi = value.bracket(bits)
            assert hi - lo <= F(1, 2**bits)
            if previous is not None:
                assert previous[0] <= lo and hi <= previous[1]
            previous = (lo, hi)

    def test_float_midpoint(self):
        assert float(pi()) == pytest.approx(math.pi, abs=1e-15)
        assert float(inv_pi()) == pytest.approx(1 / math.pi, abs=1e-15)
        assert float(pi_multiple(F(1, 4))) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_bad_oracle_rejected(self):
        too_wide = PrecisionReal("wide", lambda bits: (F(0), F(1)))
        with pytest.raises(ValueError):
            too_wide.bracket(8)

    def test_pi_multiple_validation(self):
        with pytest.raises(ValueError):
            pi_multiple(0)
        with pytest.raises(ValueError):
            pi_multiple(-1)


class TestRealCompare:
    def test_pi_vs_3(self):
        assert real_compare(pi(), 3, 64) is Comparison.GREATER

    def test_inv_pi_vs_partial_sum(self):
        # 163/512 is the ninth partial sum of 1/pi in powers of 1/2; the
        # next correction is negative, so 1/pi sits below it
        assert real_compare(inv_pi(), F(163, 512), 128) is Comparison.LESS

    def test_quarter_pi_undecided_then_less(self):
        x = F(3217, 4096)
        assert real_compare(pi_multiple(F(1, 4)), x, 16) is Comparison.UNDECIDED
        assert real_compare(pi_multiple(F(1, 4)), x, 64) is Comparison.LESS

    def test_never_contradicts_itself(self):
        value = pi_multiple(F(1, 4))
        for x in (F(3217, 4096), F(785, 1000), F(786, 1000), F(1, 2)):
            seen = set()
            for bits in (8, 16, 64, 256):
                seen.add(real_compare(value, x, bits))
            assert not ({Comparison.LESS, Comparison.GREATER} <= seen)

    def test_max_bits_floor(self):
        with pytest.raises(ValueError):
            real_compare(pi(), 3, 4)
