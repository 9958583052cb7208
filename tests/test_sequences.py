import cmath
from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cmexpand.engine import ExpansionRatio, closed_form_partial
from cmexpand.errors import BranchUndefined, DegenerateParams
from cmexpand.numerics import QuadraticSurd
from cmexpand.sequences import (
    BACKWARD,
    CATALOG_SPELLINGS,
    FAMILIES,
    GEN_J,
    GEN_J_LIKE,
    IDENTITY_SPELLINGS,
    SEQ_SPELLINGS,
    a_continuous,
    a_number,
    gen_j,
    gen_j_like,
    gen_j_like_recurrence,
    gen_j_recurrence,
    gf_coefficients,
    j_continuous,
    jacobsthal,
    lucas_u,
)

PHI = QuadraticSurd(F(1, 2), F(1, 2), 5)
PSI = QuadraticSurd(F(1, 2), F(-1, 2), 5)
SILVER = QuadraticSurd(1, 1, 2)
SILVER_CONJ = QuadraticSurd(1, -1, 2)

JACOBSTHAL = [0, 1, 1, 3, 5, 11, 21, 43, 85, 171]
FIBONACCI = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
PELL = [0, 1, 2, 5, 12, 29, 70, 169, 408, 985, 2378, 5741, 13860, 33461, 80782]


class TestJacobsthal:
    def test_nonnegative(self):
        assert [jacobsthal(n) for n in range(10)] == JACOBSTHAL

    def test_negative(self):
        assert [jacobsthal(n) for n in (-1, -2, -3)] == [F(1, 2), F(-1, 4), F(3, 8)]

    def test_zero(self):
        assert jacobsthal(0) == 0


class TestGenJ:
    def test_family_prefixes(self):
        fixtures = {
            (1, 3): [0, 1, 2, 7, 20, 61, 182, 547],
            (1, 4): [0, 1, 3, 13, 51, 205],
            (2, 3): [0, 1, 1, 7, 13, 55, 133, 463],
            (3, 4): [0, 1, 1, 13, 25, 181],
        }
        for (r, s), expected in fixtures.items():
            assert [gen_j(r, s, n) for n in range(len(expected))] == expected

    def test_negative_index(self):
        assert gen_j(1, 2, -3) == F(3, 8)

    def test_reflection(self):
        for r, s in ((1, 2), (1, 3), (2, 3), (2, 5), (3, 4)):
            for n in range(15):
                assert gen_j(r, s, -n) == -F(-1, r * s) ** n * gen_j(r, s, n)

    def test_duality_with_jlike(self):
        for r, s in ((1, 2), (1, 3), (2, 3), (3, 4)):
            for n in range(12):
                assert gen_j(r, s, n) == gen_j_like(-r, s, n)

    def test_partial_sum_linkage(self):
        for r, s in ((1, 2), (2, 3), (3, 5)):
            ratio = ExpansionRatio(r, s)
            for n in range(12):
                assert gen_j(r, s, n) == s**n * closed_form_partial(ratio, n)

    def test_two_term_recurrences(self):
        for r, s in ((1, 2), (2, 3), (3, 5)):
            for n in range(12):
                assert gen_j(r, s, n + 1) == s * gen_j(r, s, n) + F(-r) ** n
                assert gen_j(r, s, n + 1) == F(s) ** n - r * gen_j(r, s, n)

    def test_param_validation(self):
        for r, s in ((2, 2), (0, 3), (3, 2)):
            with pytest.raises(ValueError):
                gen_j(r, s, 1)


class TestGenJLike:
    def test_a003462(self):
        assert [gen_j_like(1, 3, n) for n in range(9)] == [0, 1, 4, 13, 40, 121, 364, 1093, 3280]

    def test_negative_index(self):
        assert [gen_j_like(1, 3, n) for n in (-1, -2, -3)] == [F(-1, 3), F(-4, 9), F(-13, 27)]

    def test_fibonacci_surds(self):
        values = [gen_j_like(PSI, PHI, n) for n in range(13)]
        assert values == FIBONACCI
        assert all(isinstance(v, F) for v in values)

    def test_pell_surds(self):
        assert [gen_j_like(SILVER_CONJ, SILVER, n) for n in range(15)] == PELL

    def test_reflection(self):
        for r, s in ((1, 2), (1, 3), (2, 3), (3, 4)):
            for n in range(15):
                assert gen_j_like(r, s, -n) == -F(1, r * s) ** n * gen_j_like(r, s, n)

    def test_two_term_recurrences(self):
        for r, s in ((1, 3), (2, 5)):
            for n in range(12):
                assert gen_j_like(r, s, n + 1) == s * gen_j_like(r, s, n) + F(r) ** n
                assert gen_j_like(r, s, n + 1) == F(s) ** n + r * gen_j_like(r, s, n)

    def test_corrected_negative_recurrences(self):
        # first backward recurrence with the shifted index; the unshifted
        # variant is false already at r=1, s=3, n=1
        for r, s in ((1, 3), (2, 3), (3, 5)):
            for n in range(12):
                assert gen_j_like(r, s, -(n + 1)) == F(1, r) * gen_j_like(r, s, -n) - F(1, r * s ** (n + 1))
                assert gen_j_like(r, s, -(n + 1)) == -F(1, r * s) * F(1, r**n) + F(1, s) * gen_j_like(r, s, -n)
        assert gen_j_like(1, 3, -2) != F(1, 1) * gen_j_like(1, 3, 1) - F(1, 9)

    def test_degenerate(self):
        with pytest.raises(DegenerateParams):
            gen_j_like(3, 3, 2)

    def test_zero_parameter_at_negative_index(self):
        # 0**n has no value for n < 0; nonnegative indices stay defined
        for r, s in ((2, 0), (0, 2), (PSI - PSI, PHI)):
            with pytest.raises(DegenerateParams, match="nonzero at negative indices"):
                gen_j_like(r, s, -1)
        assert gen_j_like(0, 2, 3) == 4
        assert gen_j_like(2, 0, 0) == 0


class TestRecurrences:
    def test_gen_j_forward(self):
        assert gen_j_recurrence(1, 2, 8) == [0, 1, 1, 3, 5, 11, 21, 43]
        assert gen_j_recurrence(2, 3, 6) == [0, 1, 1, 7, 13, 55]

    def test_gen_j_backward(self):
        assert gen_j_recurrence(1, 2, 4, BACKWARD) == [0, F(1, 2), F(-1, 4), F(3, 8)]

    def test_gen_j_like_forward(self):
        assert gen_j_like_recurrence(1, 3, 6) == [0, 1, 4, 13, 40, 121]

    def test_gen_j_like_backward(self):
        assert gen_j_like_recurrence(1, 3, 4, BACKWARD) == [0, F(-1, 3), F(-4, 9), F(-13, 27)]

    def test_backward_with_zero_parameter(self):
        for r, s in ((0, 2), (3, 0)):
            with pytest.raises(DegenerateParams, match="nonzero at negative indices"):
                gen_j_like_recurrence(r, s, 4, BACKWARD)
        assert gen_j_like_recurrence(0, 2, 4) == [0, 1, 2, 4]

    def test_fibonacci_via_surd_recurrence(self):
        # s + r = 1 and r*s = -1, so the unrolled values stay integers
        assert gen_j_like_recurrence(PSI, PHI, 8) == [0, 1, 1, 2, 3, 5, 8, 13]

    def test_counts(self):
        assert gen_j_recurrence(1, 2, 0) == []
        assert gen_j_recurrence(1, 2, 1) == [0]
        with pytest.raises(ValueError):
            gen_j_recurrence(1, 2, -1)
        with pytest.raises(ValueError):
            gen_j_recurrence(1, 2, 5, "sideways")


class TestTripleRoute:
    def test_closed_form_recurrence_and_gf_agree(self):
        for r in range(1, 5):
            for s in range(r + 1, 6):
                count = 15
                expected_j = [gen_j(r, s, n) for n in range(count)]
                assert gen_j_recurrence(r, s, count) == expected_j
                assert gf_coefficients(GEN_J, r, s, count) == expected_j
                expected_jlike = [gen_j_like(r, s, n) for n in range(count)]
                assert gen_j_like_recurrence(r, s, count) == expected_jlike
                assert gf_coefficients(GEN_J_LIKE, r, s, count) == expected_jlike

    def test_backward_routes_agree(self):
        for r, s in ((1, 2), (2, 3), (3, 4)):
            backward = gen_j_recurrence(r, s, 10, BACKWARD)
            assert backward == [gen_j(r, s, -n) for n in range(10)]
            backward = gen_j_like_recurrence(r, s, 10, BACKWARD)
            assert backward == [gen_j_like(r, s, -n) for n in range(10)]


class TestLucas:
    def test_fixtures(self):
        assert [lucas_u(1, -1, n) for n in range(8)] == FIBONACCI[:8]
        assert [lucas_u(2, -1, n) for n in range(7)] == PELL[:7]
        assert [lucas_u(1, -2, n) for n in range(7)] == JACOBSTHAL[:7]

    def test_matches_jlike_parameters(self):
        # U_n(s+r, rs) is the gen_j_like family
        for r, s in ((1, 3), (2, 5)):
            for n in range(10):
                assert lucas_u(s + r, r * s, n) == gen_j_like(r, s, n)

    def test_surd_closed_form_equals_integer_recurrence(self):
        for n in range(13):
            assert gen_j_like(PSI, PHI, n) == lucas_u(1, -1, n)
        for n in range(15):
            assert gen_j_like(SILVER_CONJ, SILVER, n) == lucas_u(2, -1, n)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            lucas_u(1, -1, -1)


class TestGfCoefficients:
    def test_jacobsthal(self):
        assert gf_coefficients(GEN_J, 1, 2, 7) == [0, 1, 1, 3, 5, 11, 21]

    def test_a003462(self):
        assert gf_coefficients(GEN_J_LIKE, 1, 3, 6) == [0, 1, 4, 13, 40, 121]

    def test_single_coefficient(self):
        assert gf_coefficients(GEN_J, 2, 3, 1) == [0]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gf_coefficients("other", 1, 2, 5)


class TestANumber:
    def test_reduces_to_jacobsthal(self):
        assert [a_number(1, -1, 2, 1, n) for n in range(7)] == JACOBSTHAL[:7]

    def test_a102900_closed_form(self):
        assert [a_number(2, 3, 4, 1, n) for n in range(5)] == [1, 1, 7, 25, 103]

    def test_reduces_to_gen_j(self):
        # t = +r recovers gen_j; t = -r recovers gen_j_like
        assert [a_number(1, -1, 4, 3, n) for n in range(5)] == [gen_j(3, 4, n) for n in range(5)]
        assert [a_number(1, -1, 4, 3, n) for n in range(5)] == [0, 1, 1, 13, 25]

    def test_reduces_to_gen_j_like(self):
        assert [a_number(1, -1, 4, -3, n) for n in range(6)] == [gen_j_like(3, 4, n) for n in range(6)]

    def test_degenerate(self):
        with pytest.raises(DegenerateParams):
            a_number(1, 1, 2, -2, 3)

    def test_complex_parameters(self):
        value = a_number(1 + 0j, -1 + 0j, 2 + 0j, 1 + 0j, 5)
        assert value == pytest.approx(11 + 0j)


class TestContinuations:
    def test_a001047_parameters(self):
        values = [j_continuous(2, 3, n) for n in range(6)]
        for got, want in zip(values, [0, 1, 5, 19, 65, 211]):
            assert abs(got - want) <= 1e-9 * max(1, abs(want))

    def test_a002605_surd_parameters(self):
        mu, nu = 1 - 3**0.5, 1 + 3**0.5
        values = [j_continuous(mu, nu, n) for n in range(7)]
        for got, want in zip(values, [0, 1, 2, 6, 16, 44, 120]):
            assert abs(got - want) <= 1e-9 * max(1, abs(want))

    def test_lambda_one_is_always_one(self):
        assert j_continuous(1, 1 + 1e-9, 1) == pytest.approx(1)

    def test_integer_lambda_matches_exact(self):
        for mu in range(1, 5):
            for nu in range(mu + 1, 6):
                for lam in range(13):
                    exact = F(nu**lam - mu**lam, nu - mu)
                    got = j_continuous(mu, nu, lam)
                    assert abs(got - float(exact)) <= 1e-10 * max(1.0, abs(float(exact)))

    def test_degenerate_and_branch_errors(self):
        with pytest.raises(DegenerateParams):
            j_continuous(2, 2, 1)
        with pytest.raises(BranchUndefined):
            j_continuous(0, 3, 0.5)
        assert j_continuous(0, 3, 2) == pytest.approx(3)  # integer exponent is fine

    def test_a_continuous_at_integers(self):
        assert a_continuous(1, -1, 2, 1, 3) == pytest.approx(3 + 0j)

    def test_a_continuous_lambda_zero(self):
        assert a_continuous(2, 3, 4, 1, 0) == pytest.approx((2 + 3) / 5)

    def test_a_continuous_half_lambda(self):
        # independent route: sqrt(4) and exp(i pi / 2) by hand
        want = (cmath.sqrt(4) - cmath.exp(1j * cmath.pi / 2)) / 5
        got = a_continuous(1, -1, 4, 1, 0.5)
        assert got == pytest.approx(want)
        assert got == pytest.approx((2 - 1j) / 5)

    def test_a_continuous_degenerate(self):
        with pytest.raises(DegenerateParams):
            a_continuous(1, 1, 2, -2, 0.5)


class TestGeneralizedJacobsthal:
    """The r = 1 slice gen_j(1, s, n) = (s**n - (-1)**n) / (s + 1)."""

    def test_values(self):
        assert gen_j(1, 2, 5) == 11
        assert gen_j(1, 3, 3) == 7
        assert gen_j(1, 4, 0) == 0

    def test_matches_gen_j_slice(self):
        for s in range(2, 7):
            for n in range(-5, 10):
                assert gen_j(1, s, n) == (F(s) ** n - F(-1) ** n) / (s + 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_j(1, 1, 3)


def integer_recurrence(c1: int, c2: int, limit: int) -> dict:
    """x_k = c1 x_{k-1} + c2 x_{k-2} from x_0 = 0, x_1 = 1, run both ways over |k| <= limit."""
    x = {0: F(0), 1: F(1)}
    for k in range(2, limit + 1):
        x[k] = c1 * x[k - 1] + c2 * x[k - 2]
    for k in range(-1, -limit - 1, -1):
        x[k] = (x[k + 2] - c1 * x[k + 1]) / c2
    return x


class TestAgainstIntegerRecurrence:
    @given(st.integers(1, 12), st.integers(1, 12))
    def test_gen_j(self, r, s):
        assume(s > r)
        expected = integer_recurrence(s - r, r * s, 40)
        assert all(gen_j(r, s, n) == expected[n] for n in range(-40, 41))

    @given(st.integers(-12, 12), st.integers(-12, 12))
    def test_gen_j_like(self, r, s):
        assume(r != s and r * s != 0)
        expected = integer_recurrence(s + r, -r * s, 40)
        assert all(gen_j_like(r, s, n) == expected[n] for n in range(-40, 41))


class TestRegistry:
    def test_front_end_spellings(self):
        assert list(SEQ_SPELLINGS) == ["jacobsthal", "gen-j", "gen-jlike", "lucas", "a-num", "j-complex"]
        assert set(CATALOG_SPELLINGS) == {"gen-j", "gen-jlike", "lucas", "a-number"}
        assert IDENTITY_SPELLINGS == {"j": GEN_J, "jlike": GEN_J_LIKE}
        for spellings in (SEQ_SPELLINGS, CATALOG_SPELLINGS, IDENTITY_SPELLINGS):
            assert set(spellings.values()) <= set(FAMILIES)

    def test_signed_pair(self):
        # gen-j is gen-jlike at -r, and no other family carries a sign
        assert (FAMILIES[GEN_J].sign, FAMILIES[GEN_J_LIKE].sign) == (-1, 1)
        assert [name for name, family in FAMILIES.items() if family.sign] == [GEN_J, GEN_J_LIKE]

    def test_parameters_read_from_text_and_json(self):
        assert FAMILIES[GEN_J].arguments({"r": "2", "s": 3}) == (2, 3)
        assert FAMILIES["lucas"].arguments({"p": "1/2", "q": -1}) == (F(1, 2), F(-1))
        surds = {"d": 5, "r": {"a": "1/2", "b": "-1/2"}, "s": {"a": "1/2", "b": "1/2"}}
        assert FAMILIES[GEN_J_LIKE].arguments(surds) == (PSI, PHI)
        with pytest.raises(ValueError, match="r must be an integer"):
            FAMILIES[GEN_J].arguments({"r": "x", "s": "3"})
        with pytest.raises(ValueError, match="q must be a rational"):
            FAMILIES["lucas"].arguments({"p": "1", "q": "1/0"})
