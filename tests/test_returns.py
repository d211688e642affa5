import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockmax as bm
from blockmax import (
    GUMBEL_XI_EPS,
    GevParams,
    LevelBasis,
    delta_method,
    quantile,
    return_level,
    return_level_ci,
    return_level_gradient,
)
from tests_util_fits import synthetic_gumbel_fit

from conftest import central_gradient

CORRECTED = GevParams(78.70124, 21.11317, 0.0)


class TestLevel:
    def test_published_table_values(self):
        assert return_level(CORRECTED, 0.25) == pytest.approx(105.0061, abs=5e-4)
        assert return_level(CORRECTED, 0.01) == pytest.approx(175.8250, abs=5e-4)

    def test_location_at_unit_yp(self):
        # p = 1 - e^-1 makes y_p = 1 and the Gumbel level collapses to mu
        p = 1.0 - math.exp(-1.0)
        assert return_level(GevParams(12.5, 3.0, 0.0), p) == pytest.approx(12.5, abs=1e-12)

    @given(
        st.floats(-20, 80), st.floats(0.2, 30), st.floats(-0.45, 0.6),
        st.floats(1e-4, 1 - 1e-4),
    )
    @settings(max_examples=100)
    def test_equals_quantile_identity(self, mu, sigma, xi, p):
        params = GevParams(mu, sigma, xi)
        assert return_level(params, p) == quantile(params, 1.0 - p)

    def test_monotone_in_p(self):
        params = GevParams(80, 20, -0.1)
        levels = [return_level(params, p) for p in (0.5, 0.25, 0.1, 0.01, 0.001)]
        assert all(b > a for a, b in zip(levels, levels[1:]))

    def test_bounded_by_endpoint_for_negative_shape(self):
        params = GevParams(80, 20, -0.1)
        endpoint = params.mu - params.sigma / params.xi
        for p in (1e-3, 1e-6, 1e-9):
            assert return_level(params, p) < endpoint

    def test_domain(self):
        with pytest.raises(ValueError):
            return_level(CORRECTED, 0.0)
        with pytest.raises(ValueError):
            return_level(CORRECTED, 1.0)


class TestGradient:
    def test_gumbel_unit_yp(self):
        g = return_level_gradient(GevParams(0, 1, 0), 1.0 - math.exp(-1.0))
        assert g[:2] == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_gumbel_quarter(self):
        g = return_level_gradient(GevParams(0, 1, 0), 0.25)
        assert g[0] == 1.0
        assert g[1] == pytest.approx(1.2458993, abs=1e-6)

    def test_matches_finite_differences_gev(self):
        params = GevParams(79.25, 22.12, -0.045)
        p = 0.1
        fd = central_gradient(
            lambda t: return_level(GevParams(t[0], t[1], t[2]), p),
            np.array([params.mu, params.sigma, params.xi]),
        )
        g = return_level_gradient(params, p)
        assert np.allclose(g, fd, rtol=1e-6)

    @given(
        st.floats(-10, 90), st.floats(0.5, 30),
        st.sampled_from([0.0, 1e-12, -1e-12, 1e-3, -1e-3, 0.2, -0.2]),
        st.floats(0.005, 0.5),
    )
    @settings(max_examples=100)
    def test_fd_property_across_switch(self, mu, sigma, xi, p):
        params = GevParams(mu, sigma, xi)
        g = return_level_gradient(params, p)
        # three components on both sides of the Gumbel switch
        fd = central_gradient(
            lambda t: return_level(GevParams(t[0], t[1], t[2]), p),
            np.array([mu, sigma, xi]),
        )
        scale = np.maximum(np.abs(fd), 1e-6)
        assert np.all(np.abs(g - fd) / scale <= 1e-6)

    @given(
        st.floats(0.5, 30),
        st.one_of(st.floats(GUMBEL_XI_EPS, 0.6),
                  st.floats(-9.0, math.log10(0.6)).map(lambda e: max(10.0**e, GUMBEL_XI_EPS))),
        st.sampled_from([1.0, -1.0]),
        st.floats(0.005, 0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_mpmath_above_the_switch(self, sigma, size, sign, p):
        # (1, -a, -sigma*a') with a = (1 - y_p**(-xi))/xi, to 40 digits
        xi = sign * size
        with mpmath.workdps(40):
            log_y = mpmath.log(-mpmath.log1p(-mpmath.mpf(p)))
            w = mpmath.mpf(xi) * log_y
            a = -mpmath.expm1(-w) / xi
            a1 = (w * mpmath.exp(-w) + mpmath.expm1(-w)) / xi**2
            expected = [1.0, float(-a), float(-sigma * a1)]
        g = return_level_gradient(GevParams(50.0, sigma, xi), p)
        assert g.size == 3
        np.testing.assert_allclose(g, expected, rtol=1e-12, atol=0.0)


class TestCi:
    def test_zero_covariance_collapses(self):
        fit = synthetic_gumbel_fit(cov=np.zeros((2, 2)))
        est = return_level_ci(fit, 0.25)
        assert est.ci == (est.level, est.level)
        assert est.variance == 0.0

    def test_diagonal_algebra_oracle(self):
        se_mu, se_sigma = 2.031079, 1.471843
        fit = synthetic_gumbel_fit(cov=np.diag([se_mu**2, se_sigma**2]))
        p = 0.1
        est = return_level_ci(fit, p)
        log_y = math.log(-math.log1p(-p))
        expected = se_mu**2 + (log_y**2) * se_sigma**2
        assert est.variance == pytest.approx(expected, rel=1e-12)
        assert est.variance == pytest.approx(
            delta_method(fit.cov, return_level_gradient(fit.params, p)[:2]), rel=1e-12
        )

    def test_variance_is_continuous_through_the_gumbel_switch(self):
        fit = bm.fit_gev(bm.sample(GevParams(80, 20, 0), 129, seed=3))
        below, above = (
            return_level_ci(dataclasses.replace(
                fit, params=GevParams(fit.params.mu, fit.params.sigma, xi)), 0.01).variance
            for xi in (1e-10, 1.1e-9)
        )
        assert below == pytest.approx(above, rel=1e-8)

    def test_structural_symmetry_and_widening(self):
        fit = synthetic_gumbel_fit()
        rows = [return_level_ci(fit, 1.0 / t) for t in (4, 10, 40, 100)]
        for est in rows:
            assert est.ci[0] <= est.level <= est.ci[1]
            assert est.level - est.ci[0] == pytest.approx(est.ci[1] - est.level, abs=1e-9)
        widths = [est.ci[1] - est.ci[0] for est in rows]
        assert all(b > a for a, b in zip(widths, widths[1:]))
        assert [round(est.period) for est in rows] == [4, 10, 40, 100]

    def test_sidedness_quantiles(self):
        fit = synthetic_gumbel_fit()
        two = return_level_ci(fit, 0.25, tau=0.05, one_sided=False)
        one = return_level_ci(fit, 0.25, tau=0.05, one_sided=True)
        ratio = (two.ci[1] - two.level) / (one.ci[1] - one.level)
        assert ratio == pytest.approx(1.959964 / 1.644854, abs=1e-6)

    @pytest.mark.parametrize("tau, one_sided", [(1.5, False), (0.0, False), (-0.1, False),
                                                (0.7, True), (1.0, True), (0.0, True)])
    def test_rejects_a_tau_that_would_invert_the_bounds(self, tau, one_sided):
        with pytest.raises(ValueError, match="tau must lie in"):
            return_level_ci(synthetic_gumbel_fit(), 0.01, tau=tau, one_sided=one_sided)

    @pytest.mark.parametrize("tau, one_sided", [(1.0, False), (0.5, True)])
    def test_the_widest_tau_gives_an_empty_interval(self, tau, one_sided):
        est = return_level_ci(synthetic_gumbel_fit(), 0.01, tau=tau, one_sided=one_sided)
        assert est.ci == (est.level, est.level)

    def test_bias_corrected_basis(self):
        fit = synthetic_gumbel_fit()
        raw = return_level_ci(fit, 0.25)
        corr = return_level_ci(fit, 0.25, sigma_corrected=21.11317)
        assert raw.level_basis is LevelBasis.RAW_FIT
        assert corr.level_basis is LevelBasis.BIAS_CORRECTED
        assert corr.level == pytest.approx(105.0061, abs=5e-4)

    def test_missing_covariance(self):
        fit = synthetic_gumbel_fit(cov=None)
        with pytest.raises(ValueError):
            return_level_ci(fit, 0.25)

    def test_gev_fit_with_shape_below_switch(self):
        # 3x3 covariance but a shape estimate in the Gumbel regime: the
        # gradient is extended with the analytic xi->0 limit component.
        from tests_util_fits import synthetic_gev_fit

        fit = synthetic_gev_fit(xi=1e-12)
        est = return_level_ci(fit, 0.1)
        assert est.variance > 0 and est.ci[0] < est.level < est.ci[1]
