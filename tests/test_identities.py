from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmexpand.errors import InvalidIndices
from cmexpand.identities import (
    CATALAN,
    CONVOLUTION,
    DOCAGNE,
    IDENTITIES,
    catalan_sides,
    identity_check,
    identity_sweep,
)
from cmexpand.sequences import GEN_J, GEN_J_LIKE, gen_j_like


class TestIdentityCheck:
    def test_catalan_jlike_example(self):
        report = identity_check(CATALAN, GEN_J_LIKE, 1, 2, 2, 1)
        assert (report.lhs, report.rhs) == (F(-2), F(-2))
        assert report.holds

    def test_convolution_j_example(self):
        report = identity_check(CONVOLUTION, GEN_J, 1, 2, 2, 2)
        assert report.lhs == 5 and report.rhs == 3 + 2
        assert report.holds

    def test_docagne_j_example(self):
        report = identity_check(DOCAGNE, GEN_J, 1, 2, 3, 1)
        assert (report.lhs, report.rhs) == (F(-2), F(-2))
        assert report.holds

    def test_spot_grid_holds(self):
        for identity in (CATALAN, CONVOLUTION, DOCAGNE):
            for family in (GEN_J, GEN_J_LIKE):
                for r, s in ((1, 2), (2, 3), (3, 5)):
                    for n, m in ((3, 1), (5, 2), (7, 4)):
                        assert identity_check(identity, family, r, s, n, m).holds

    def test_invalid_indices(self):
        with pytest.raises(InvalidIndices):
            identity_check(CATALAN, GEN_J, 1, 2, 2, 2)
        with pytest.raises(InvalidIndices):
            identity_check(DOCAGNE, GEN_J, 1, 2, 1, 3)
        with pytest.raises(InvalidIndices):
            identity_check(CONVOLUTION, GEN_J, 1, 2, 3, 0)

    def test_catalan_allows_m_zero(self):
        report = identity_check(CATALAN, GEN_J_LIKE, 1, 2, 3, 0)
        assert report.holds and report.lhs == 0 == report.rhs

    def test_param_validation(self):
        with pytest.raises(ValueError):
            identity_check(CATALAN, GEN_J, 2, 2, 3, 1)
        with pytest.raises(ValueError):
            identity_check("cassini", GEN_J, 1, 2, 3, 1)
        with pytest.raises(ValueError):
            identity_check(CATALAN, "other", 1, 2, 3, 1)


class TestUnsquaredCatalanTypo:
    def test_unsquared_form_fails_at_documented_point(self):
        lhs, rhs = catalan_sides(GEN_J_LIKE, 1, 2, 2, 1, squared=False)
        assert lhs != rhs
        assert (lhs, rhs) == (F(4), F(-2))

    def test_squared_form_holds_at_same_point(self):
        lhs, rhs = catalan_sides(GEN_J_LIKE, 1, 2, 2, 1, squared=True)
        assert lhs == rhs


class TestDuality:
    def test_j_identity_values_are_jlike_at_negated_r(self):
        # substituting r -> -r into the jlike sides must give the j sides
        for r, s in ((1, 2), (2, 3), (2, 5)):
            for n, m in ((4, 1), (5, 3)):
                j_report = identity_check(DOCAGNE, GEN_J, r, s, n, m)
                lhs = gen_j_like(-r, s, n) * gen_j_like(-r, s, m + 1) - gen_j_like(-r, s, n + 1) * gen_j_like(-r, s, m)
                rhs = F(s * -r) ** m * gen_j_like(-r, s, n - m)
                assert (j_report.lhs, j_report.rhs) == (lhs, rhs)


class TestSweep:
    def test_full_sweep_clean(self):
        for family in (GEN_J, GEN_J_LIKE):
            summary = identity_sweep(family, 4, 5, 12)
            assert summary.ok
            assert summary.failures == ()
            assert summary.checked > 0 and summary.skipped > 0

    def test_small_grid(self):
        summary = identity_sweep(GEN_J, 1, 2, 3)
        assert summary.ok
        # catalan/docagne skip n <= m, convolution skips m = 0
        assert summary.skipped == 2 * 10 + 4

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            identity_sweep(GEN_J, 0, 2, 3)

    @settings(max_examples=25, deadline=None)
    @given(
        family=st.sampled_from((GEN_J, GEN_J_LIKE)),
        r_max=st.integers(1, 3),
        s_max=st.integers(1, 5),
        n_max=st.integers(1, 6),
    )
    def test_sweep_equals_pointwise_checks(self, family, r_max, s_max, n_max):
        checked = skipped = 0
        failures = []
        for r in range(1, r_max + 1):
            for s in range(r + 1, s_max + 1):
                for n in range(n_max + 1):
                    for m in range(n_max + 1):
                        for identity in IDENTITIES:
                            try:
                                report = identity_check(identity, family, r, s, n, m)
                            except InvalidIndices:
                                skipped += 1
                                continue
                            checked += 1
                            if not report.holds:
                                failures.append(report)
        summary = identity_sweep(family, r_max, s_max, n_max)
        assert (summary.checked, summary.skipped) == (checked, skipped)
        assert summary.failures == tuple(failures)
