import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockmax as bm
from blockmax import GevParams, nllh_gev, nllh_gumbel, observed_information
from blockmax.likelihood import PENALTY, SingularInformationError

from conftest import central_gradient

DATA = Path(__file__).with_name("data")


class TestValues:
    def test_single_standard_gumbel_point(self):
        # m*log(sigma) + sum z + sum exp(-z) = 0 + 0 + 1
        r = nllh_gumbel([0.0], 0.0, 1.0)
        assert r.valid and r.value == pytest.approx(1.0, abs=1e-14)
        r = nllh_gev([0.0], GevParams(0, 1, 0))
        assert r.valid and r.value == pytest.approx(1.0, abs=1e-14)

    def test_additivity(self):
        assert nllh_gumbel([0.0, 0.0], 0.0, 1.0).value == pytest.approx(2.0, abs=1e-14)
        a = nllh_gev([1.0], GevParams(0.5, 2, 0.1)).value
        b = nllh_gev([3.0], GevParams(0.5, 2, 0.1)).value
        both = nllh_gev([1.0, 3.0], GevParams(0.5, 2, 0.1)).value
        assert both == pytest.approx(a + b, rel=1e-12)

    def test_support_violation_penalized(self):
        # lower endpoint mu - sigma/xi = -2; a point below it is invalid
        r = nllh_gev([-3.0, 0.0], GevParams(0, 1, 0.5))
        assert not r.valid and r.value >= PENALTY
        # exactly on the boundary also counts as a violation
        r = nllh_gev([-2.0], GevParams(0, 1, 0.5))
        assert not r.valid and r.value >= PENALTY

    def test_sigma_nonpositive_penalized(self):
        r = nllh_gumbel([1.0, 2.0], 0.0, -1.0)
        assert not r.valid and r.value == pytest.approx(PENALTY + 1.0)

    def test_penalty_grows_with_violation(self):
        p = GevParams(0, 1, 0.5)
        shallow = nllh_gev([-2.5], p).value
        deep = nllh_gev([-9.0], p).value
        assert deep > shallow >= PENALTY

    def test_overflow_is_finite_and_invalid(self):
        r = nllh_gumbel([-1e6], 0.0, 1e-3)
        assert math.isfinite(r.value) and not r.valid

    def test_generating_params_beat_far_perturbation(self):
        s = bm.sample(GevParams(80, 20, 0), 129, seed=5)
        at_truth = nllh_gumbel(s, 80.0, 20.0).value
        far = nllh_gumbel(s, 110.0, 35.0).value
        assert at_truth < far

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            nllh_gumbel([], 0.0, 1.0)
        with pytest.raises(ValueError):
            nllh_gev(np.array([]), GevParams(0, 1, 0.1))

    def test_gev_at_tiny_xi_equals_gumbel(self):
        s = bm.sample(GevParams(10, 3, 0), 50, seed=9)
        for xi in (1e-10, -1e-10):
            a = nllh_gev(s, GevParams(10, 3, xi)).value
            b = nllh_gumbel(s, 10.0, 3.0).value
            assert abs(a - b) <= 1e-6

    @given(
        st.floats(0.5, 20),
        st.floats(-30, 30),
        st.floats(-0.4, 0.5),
        st.integers(0, 10_000),
    )
    @settings(max_examples=60)
    def test_affine_invariance(self, a, b, xi, seed):
        p = GevParams(2.0, 1.5, xi)
        x = bm.sample(p, 40, seed=seed).values
        base = nllh_gev(x, p).value
        shifted = nllh_gev(a * x + b, GevParams(a * p.mu + b, a * p.sigma, xi)).value
        assert shifted == pytest.approx(base + x.size * math.log(a), abs=1e-9 * max(1, abs(base)))


class TestObservedInformation:
    def test_matches_analytic_asymptotics(self, gumbel_10k):
        fit = bm.fit_gumbel(gumbel_10k)
        n = len(gumbel_10k.values)
        g = np.euler_gamma
        info1 = np.array([[1.0, g - 1.0], [g - 1.0, math.pi**2 / 6 + (1 - g) ** 2]])
        se_asym = np.sqrt(np.diag(np.linalg.inv(info1))) * fit.params.sigma / math.sqrt(n)
        assert np.all(np.abs(fit.se - se_asym) / se_asym < 0.05)

    def test_hessian_vs_gradient_differences(self):
        s = bm.sample(GevParams(0, 1, 0), 1000, seed=13)
        fit = bm.fit_gumbel(s)
        theta = fit.theta
        info = observed_information(s, fit.params, model="gumbel")

        def nllh_at(t):
            return nllh_gumbel(s, t[0], t[1]).value

        h = 1e-4
        fd = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd[:, j] = (
                central_gradient(nllh_at, theta + e, h=1e-4)
                - central_gradient(nllh_at, theta - e, h=1e-4)
            ) / (2 * h)
        assert np.allclose(fd, info.matrix, rtol=1e-4)

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1e5, 1.0), (1e6, 1.0), (1e7, 1.0),
                                      (1e4, 1e-3), (0.0, 1e3)])
    def test_standard_errors_follow_the_units_of_the_data(self, a, b):
        x = np.loadtxt(DATA / "maxima.txt", skiprows=1)[:, 1]
        base = bm.fit_gev(x).se
        se = bm.fit_gev(a + b * x).se
        assert se is not None
        assert np.allclose(se / np.array([b, b, 1.0]), base, rtol=1e-5, atol=0.0)

    def test_symmetric_and_positive_definite_at_fit(self, gev_2k):
        fit = bm.fit_gev(gev_2k)
        info = observed_information(gev_2k, fit.params, model="gev")
        assert np.max(np.abs(info.matrix - info.matrix.T)) <= 1e-8
        assert np.all(np.linalg.eigvalsh(info.matrix) > 0)
        assert info.condition_estimate >= 1.0

    def test_stencil_outside_support_raises(self):
        # max(x) sits exactly at the endpoint, so any xi step breaks validity
        p = GevParams(0.0, 1.0, -0.5)
        x = np.array([0.1, 0.5, 2.0 - 1e-12])
        with pytest.raises(SingularInformationError):
            observed_information(x, p, model="gev")
