import math
from fractions import Fraction as F
from itertools import combinations

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmexpand.engine import (
    ExpansionRatio,
    X0Policy,
    closed_form_partial,
    error_bound,
    expand,
    regroup,
    term_magnitude,
)
from cmexpand.errors import InsufficientTerms, NonConvergent, PrecisionExhausted
from cmexpand.realnum import Comparison, PrecisionReal, inv_pi, pi_multiple, real_compare

HALF = ExpansionRatio(1, 2)
RATIOS = [ExpansionRatio(r, s) for r, s in combinations(range(1, 7), 2)]


def greedy_oracle(target, ratio, x0, terms):
    # independent reference: direct greedy recursion on exact rationals, with
    # the engine's guards (reachability from x0 and after each step, and the
    # unit interval) raising NonConvergent
    r, s = ratio.r, ratio.s

    def tail(n):
        return F(r**n, s**n * (s - r))

    sums = [x0]
    if abs(target - x0) > tail(0):
        raise NonConvergent("start")
    for n in range(1, terms + 1):
        diff = target - sums[-1]
        if diff == 0:
            break
        sign = 1 if diff > 0 else -1
        sums.append(sums[-1] + sign * F(r ** (n - 1), s**n))
        if not 0 <= sums[-1] <= 1:
            raise NonConvergent("unit interval")
        if abs(target - sums[-1]) > tail(n):
            raise NonConvergent("tail")
    return sums


def oracle_x0(target, policy):
    return {"zero": F(0), "one": F(1), "larger": F(0) if target <= F(1, 2) else F(1)}[policy]


class TestRatio:
    def test_normalized(self):
        ratio = ExpansionRatio(2, 4)
        assert (ratio.r, ratio.s) == (1, 2)

    def test_invalid(self):
        for r, s in ((0, 2), (2, 2), (3, 2), (-1, 2)):
            with pytest.raises(ValueError):
                ExpansionRatio(r, s)

    def test_from_text(self):
        assert ExpansionRatio.from_text("3/4") == ExpansionRatio(3, 4)
        with pytest.raises(ValueError):
            ExpansionRatio.from_text("3")


class TestLadder:
    def test_term_magnitude_examples(self):
        assert term_magnitude(HALF, 3) == F(1, 8)
        assert term_magnitude(ExpansionRatio(2, 3), 1) == F(1, 3)
        assert term_magnitude(ExpansionRatio(3, 4), 2) == F(3, 16)

    def test_error_bound_examples(self):
        assert error_bound(HALF, 0) == 1
        assert error_bound(HALF, 5) == F(1, 32)
        assert error_bound(ExpansionRatio(2, 3), 2) == F(4, 9)

    def test_ladder_telescopes(self):
        for ratio in RATIOS:
            for n in range(1, 21):
                assert error_bound(ratio, n - 1) == term_magnitude(ratio, n) + error_bound(ratio, n)

    def test_closed_form_examples(self):
        assert closed_form_partial(HALF, 4) == F(5, 16)
        assert closed_form_partial(HALF, 0) == 0
        assert closed_form_partial(ExpansionRatio(2, 3), 3) == F(7, 27)


class TestExpandExact:
    def test_one_third(self):
        run = expand(F(1, 3), HALF, "zero", 9)
        assert run.partial_sums[:6] == (0, F(1, 2), F(1, 4), F(3, 8), F(5, 16), F(11, 32))
        assert [x * 2**n for n, x in enumerate(run.partial_sums)] == [0, 1, 1, 3, 5, 11, 21, 43, 85, 171]
        assert run.signs == (1, -1, 1, -1, 1, -1, 1, -1, 1)

    def test_one_seventh_signs_repeat_plus_minus_minus(self):
        run = expand(F(1, 7), HALF, "zero", 12)
        assert run.signs == (1, -1, -1) * 4
        assert run.partial_sums[:8] == (
            0, F(1, 2), F(1, 4), F(1, 8), F(3, 16), F(5, 32), F(9, 64), F(19, 128),
        )

    def test_one_fifth_in_two_thirds(self):
        run = expand(F(1, 5), ExpansionRatio(2, 3), "zero", 4)
        assert run.partial_sums == (0, F(1, 3), F(1, 9), F(7, 27), F(13, 81))

    def test_termination(self):
        run = expand(F(1, 4), HALF, "zero", 10)
        assert run.terminated and len(run.signs) == 2
        assert run.partial_sums == (0, F(1, 2), F(1, 4))
        # hitting the target on the very last allowed term still counts
        run = expand(F(1, 4), HALF, "zero", 2)
        assert run.terminated and len(run.signs) == 2

    def test_no_termination_in_thirds(self):
        run = expand(F(1, 4), ExpansionRatio(1, 3), "zero", 64)
        assert not run.terminated and len(run.signs) == 64

    def test_greedy_error_bound_everywhere(self):
        targets = [F(1, q) for q in range(2, 13)] + [F(3, 7), F(2, 5)]
        for ratio in (HALF, ExpansionRatio(1, 3), ExpansionRatio(2, 3)):
            for target in targets:
                try:
                    run = expand(target, ratio, "larger", 14)
                except NonConvergent:
                    continue
                for n, x in enumerate(run.partial_sums):
                    assert abs(target - x) <= error_bound(ratio, n)

    def test_matches_independent_greedy(self):
        for ratio in (HALF, ExpansionRatio(1, 4), ExpansionRatio(3, 4)):
            for q in range(2, 11):
                try:
                    run = expand(F(1, q), ratio, "zero", 10)
                except NonConvergent:
                    continue
                assert list(run.partial_sums) == greedy_oracle(F(1, q), ratio, F(0), 10)

    def test_canonical_agreement_and_alternation(self):
        for ratio in RATIOS:
            target = F(1, ratio.r + ratio.s)
            run = expand(target, ratio, "zero", 12)
            for n, x in enumerate(run.partial_sums):
                assert x == closed_form_partial(ratio, n)
            assert run.signs == tuple((-1) ** k for k in range(12))

    def test_x0_policies(self):
        assert expand(F(1, 3), HALF, X0Policy.AT_ONE, 0).x0 == 1
        assert expand(F(1, 3), HALF, "larger", 0).x0 == 0
        assert expand(F(3, 4), HALF, "larger", 0).x0 == 1
        assert expand(F(1, 2), HALF, "larger", 0).x0 == 0

    def test_x0_choice_does_not_break_convergence(self):
        target = F(5, 8)
        for policy in ("zero", "one"):
            run = expand(target, HALF, policy, 16)
            for n, x in enumerate(run.partial_sums):
                assert abs(target - x) <= error_bound(HALF, n)

    def test_zero_and_one_terminate_immediately(self):
        run = expand(F(0), HALF, "zero", 5)
        assert run.terminated and run.partial_sums == (F(0),)
        run = expand(F(1), HALF, "one", 5)
        assert run.terminated and run.partial_sums == (F(1),)


class TestLadderProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        q=st.integers(1, 10**6),
        num=st.integers(0, 10**6),
        r=st.integers(1, 7),
        extra=st.integers(1, 6),
        scale=st.sampled_from((1, 1, 2, 3)),
        policy=st.sampled_from(("zero", "one", "larger")),
        terms=st.integers(0, 80),
    )
    def test_matches_greedy_oracle(self, q, num, r, extra, scale, policy, terms):
        # scale > 1 hands expand an unreduced ratio such as 4/6
        target = F(num % (q + 1), q)
        ratio = ExpansionRatio(r * scale, (r + extra) * scale)
        x0 = oracle_x0(target, policy)
        try:
            expected = greedy_oracle(target, ratio, x0, terms)
        except NonConvergent:
            with pytest.raises(NonConvergent):
                expand(target, ratio, policy, terms)
            return
        run = expand(target, ratio, policy, terms)
        assert list(run.partial_sums) == expected
        assert list(run.signs) == [1 if b > a else -1 for a, b in zip(expected, expected[1:])]
        assert run.terminated == (expected[-1] == target)
        for n, x in enumerate(run.partial_sums):
            assert abs(target - x) <= error_bound(ratio, n)
            if n:
                assert x.denominator == ratio.s**n

    def test_magnitudes_and_bounds_are_reduced(self):
        for ratio in RATIOS + [ExpansionRatio(4, 6), ExpansionRatio(7, 8)]:
            r, s = ratio.r, ratio.s
            for n in range(1, 40):
                assert term_magnitude(ratio, n) == F(r ** (n - 1), s**n)
                assert term_magnitude(ratio, n).denominator == s**n
                bound = error_bound(ratio, n)
                assert bound == F(r**n, s**n * (s - r))
                assert (bound.numerator, bound.denominator) == (r**n, s**n * (s - r))


def mpmath_signs(text, ratio, x0, terms, bits):
    """Greedy signs of a pi-derived target, replayed in mpmath well past the estimates' size."""
    r, s = ratio.r, ratio.s
    with mpmath.workprec(bits + int(terms * math.log2(s)) + 128):
        value = 1 / mpmath.pi if text == "1/pi" else mpmath.mpf(text.numerator) * mpmath.pi / text.denominator
        a, signs = x0, []
        for n in range(1, terms + 1):
            sign = 1 if value * s ** (n - 1) > a else -1
            signs.append(sign)
            a = a * s + sign * r ** (n - 1)
    return signs


class TestBracketedSigns:
    CASES = [
        ("1/pi", HALF, 0, 400, 2048),
        ("1/pi", ExpansionRatio(2, 3), 0, 300, 1024),
        ("1/pi", ExpansionRatio(7, 8), 0, 500, 1024),
        (F(1, 4), HALF, 1, 300, 1024),
        (F(1, 5), ExpansionRatio(3, 5), 1, 200, 1024),
        (F(2, 7), ExpansionRatio(7, 8), 1, 400, 512),
    ]

    @pytest.mark.parametrize("text, ratio, x0, terms, bits", CASES)
    def test_signs_match_mpmath_replay(self, text, ratio, x0, terms, bits):
        target = inv_pi() if text == "1/pi" else pi_multiple(text)
        run = expand(target, ratio, "zero" if x0 == 0 else "one", terms, bits)
        assert list(run.signs) == mpmath_signs(text, ratio, x0, terms, bits)
        assert not run.terminated

    # (target, ratio, x0, terms, max_bits) -> the estimate the sign decision stalled at
    EXHAUSTED = [
        (inv_pi, HALF, "zero", 40, 16, "20861/65536"),
        (inv_pi, ExpansionRatio(2, 3), "larger", 60, 32,
         "685542080540129114993839/2153693963075557766310747"),
        (lambda: pi_multiple(F(1, 4)), HALF, "one", 16, 8, "403/512"),
    ]

    @pytest.mark.parametrize("make, ratio, policy, terms, bits, stalled", EXHAUSTED)
    def test_precision_exhausted_cases(self, make, ratio, policy, terms, bits, stalled):
        target = make()
        with pytest.raises(PrecisionExhausted) as info:
            expand(target, ratio, policy, terms, bits)
        assert str(info.value) == f"cannot separate {target!r} from {stalled} within {bits} bits"
        # undecidable: the estimate lies within 2**-bits of the target (bits <= 32, so a float is exact enough)
        assert abs(F(stalled) - F(float(target))) < F(1, 2**bits)


def real_compare_expand(target, ratio, policy, terms, bits):
    """The step loop on Fractions with every decision made by real_compare: the reference
    for the engine's scaled-integer bracket route (signs, errors, and which refinements run)."""
    r, s = ratio.r, ratio.s
    target.bracket(8)  # the range check
    half = real_compare(target, F(1, 2), bits) if policy == "larger" else None
    x0 = F(0) if policy == "zero" or half is Comparison.LESS else F(1)

    def beyond(center, bound):
        return (real_compare(target, center + bound, bits) is Comparison.GREATER
                or real_compare(target, center - bound, bits) is Comparison.LESS)

    sums = [x0]
    if beyond(x0, F(1, s - r)):
        raise NonConvergent(f"|{target} - {x0}| exceeds the total ladder sum")
    for n in range(1, terms + 1):
        order = real_compare(target, sums[-1], bits)
        if order is Comparison.UNDECIDED:
            raise PrecisionExhausted(f"cannot separate {target!r} from {sums[-1]} within {bits} bits")
        sums.append(sums[-1] + order.value * F(r ** (n - 1), s**n))
        if not 0 <= sums[-1] <= 1:
            raise NonConvergent(f"step {n} would leave the unit interval ({sums[-1]})")
        if beyond(sums[-1], F(r**n, s**n * (s - r))):
            raise NonConvergent(f"remaining terms after step {n} cannot reach {target}")
    return sums


def logged(make):
    """A fresh PrecisionReal that records the bits of every oracle call (every refinement)."""
    base, log = make(), []

    def oracle(bits):
        log.append(bits)
        return base._oracle(bits)

    return PrecisionReal(base.name, oracle), log


class TestBracketRoute:
    @pytest.mark.parametrize("make", [inv_pi, lambda: pi_multiple(F(1, 4)), lambda: pi_multiple(F(7, 22))])
    @pytest.mark.parametrize("ratio", [HALF, ExpansionRatio(2, 3), ExpansionRatio(7, 8), ExpansionRatio(3, 5)])
    def test_same_outcome_and_refinements_as_real_compare(self, make, ratio):
        for policy in ("zero", "one", "larger"):
            for bits in (8, 9, 16, 64, 256):
                for terms in (0, 20, 150):
                    outcomes = []
                    for route in (expand, real_compare_expand):
                        target, log = logged(make)
                        try:
                            result = route(target, ratio, policy, terms, bits)
                            sums = list(getattr(result, "partial_sums", result))
                        except (NonConvergent, PrecisionExhausted) as exc:
                            sums = (type(exc), str(exc))
                        outcomes.append((sums, log, target.bracket(8)))
                    assert outcomes[0] == outcomes[1]


class TestExpandErrors:
    def test_out_of_range_target(self):
        with pytest.raises(ValueError):
            expand(F(5, 3), HALF)
        with pytest.raises(ValueError):
            expand(F(-1, 3), HALF)

    def test_initial_gap_too_large(self):
        # tail(0) = 1/2 for ratio 1/3, so 3/4 is unreachable from 0
        with pytest.raises(NonConvergent):
            expand(F(3, 4), ExpansionRatio(1, 3), "zero", 8)

    def test_tail_guard(self):
        with pytest.raises(NonConvergent):
            expand(F(1, 7), ExpansionRatio(1, 3), "zero", 8)

    def test_unit_interval_guard(self):
        # greedy step 3 for 1/10 in powers of 2/3 would land at -1/27
        with pytest.raises(NonConvergent):
            expand(F(1, 10), ExpansionRatio(2, 3), "zero", 8)

    def test_negative_max_terms(self):
        with pytest.raises(ValueError):
            expand(F(1, 3), HALF, "zero", -1)


class TestExpandReal:
    def test_quarter_pi_start(self):
        run = expand(pi_multiple(F(1, 4)), HALF, "one", 5)
        assert run.partial_sums == (1, F(1, 2), F(3, 4), F(7, 8), F(13, 16), F(25, 32))

    def test_inv_pi_partial_sums(self):
        run = expand(inv_pi(), HALF, "zero", 9)
        assert run.partial_sums[-1] == F(163, 512)
        assert not run.terminated

    def test_larger_group_resolves_by_bracket(self):
        assert expand(inv_pi(), HALF, "larger", 0).x0 == 0
        assert expand(pi_multiple(F(1, 4)), HALF, "larger", 0).x0 == 1

    def test_precision_exhausted(self):
        # around n = 12 the estimate is ~2e-6 from pi/4, undecidable at 8 bits
        with pytest.raises(PrecisionExhausted):
            expand(pi_multiple(F(1, 4)), HALF, "one", 16, max_bits=8)

    def test_matches_float_greedy(self):
        run = expand(inv_pi(), HALF, "zero", 15)
        oracle = [F(0)]
        for n in range(1, 16):
            sign = 1 if 1 / math.pi > float(oracle[-1]) else -1
            oracle.append(oracle[-1] + sign * F(1, 2**n))
        assert list(run.partial_sums) == oracle


class TestRegroup:
    def test_one_seventh_block3(self):
        run = expand(F(1, 7), HALF, "zero", 18)
        grouped = regroup(run, 3)
        assert all(c == 1 for c in grouped.coefficients)
        assert [x * 8**n for n, x in enumerate(grouped.partial_sums)] == [0, 1, 9, 73, 585, 4681, 37449]

    def test_one_fifth_block2_alternates(self):
        run = expand(F(1, 5), HALF, "zero", 12)
        grouped = regroup(run, 2)
        assert list(grouped.coefficients) == [1, -1, 1, -1, 1, -1]

    def test_one_fifth_block4_constant(self):
        run = expand(F(1, 5), HALF, "zero", 16)
        grouped = regroup(run, 4)
        assert all(c == 3 for c in grouped.coefficients)

    def test_block1_is_identity(self):
        run = expand(F(1, 3), HALF, "zero", 8)
        grouped = regroup(run, 1)
        assert grouped.partial_sums == run.partial_sums
        assert grouped.coefficients == tuple(F(sign) for sign in run.signs)

    def test_grouped_sums_are_strided_originals(self):
        for block in (1, 2, 3, 4):
            for target, ratio in ((F(1, 7), HALF), (F(1, 5), ExpansionRatio(2, 3))):
                run = expand(target, ratio, "zero", 12)
                grouped = regroup(run, block)
                for n, x in enumerate(grouped.partial_sums):
                    assert x == run.partial_sums[block * n]

    def test_grouped_series_invariant(self):
        run = expand(F(1, 5), ExpansionRatio(2, 3), "zero", 12)
        grouped = regroup(run, 3)
        step = ratio_power = F(2, 3) ** 3
        total = grouped.x0
        for k, coefficient in enumerate(grouped.coefficients, start=1):
            total += coefficient * ratio_power
            ratio_power *= step
            assert total == grouped.partial_sums[k]

    def test_insufficient_terms(self):
        run = expand(F(1, 4), HALF, "zero", 10)  # terminates with 2 terms
        with pytest.raises(InsufficientTerms):
            regroup(run, 3)
        with pytest.raises(ValueError):
            regroup(run, 0)
