import math

import mpmath
import pytest
from scipy import stats

from blockmax.special import chi2_cdf, chi2_quantile, gamma_p, normal_quantile


@pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 30])
@pytest.mark.parametrize("q", [0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999])
def test_chi2_quantile_matches_scipy(df, q):
    assert chi2_quantile(q, df) == pytest.approx(stats.chi2.ppf(q, df), rel=1e-9)


@pytest.mark.parametrize("df", [1, 2, 7])
@pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 3.84, 10.0, 50.0])
def test_chi2_cdf_matches_scipy(df, x):
    assert chi2_cdf(x, df) == pytest.approx(stats.chi2.cdf(x, df), abs=1e-12)


def test_chi2_roundtrip():
    for q in (0.05, 0.5, 0.95):
        assert chi2_cdf(chi2_quantile(q, 3), 3) == pytest.approx(q, abs=1e-12)


def test_chi2_95_df1():
    # the 3.84 threshold used by the 5% likelihood-ratio test
    assert chi2_quantile(0.95, 1) == pytest.approx(3.841458821, abs=1e-6)


@pytest.mark.parametrize("q", [0.01, 0.5, 0.95, 0.999, 1 - 1e-5, 1 - 1e-9])
def test_chi2_df1_quantile_is_a_squared_normal_quantile(q):
    # chi-square(1) is the law of Z**2, so its q quantile is z_{(1-q)/2}**2;
    # 2*erfinv(q)**2 is the same number at 40 digits
    x = chi2_quantile(q, 1)
    assert x == normal_quantile(0.5 * (1.0 - q)) ** 2
    with mpmath.workdps(40):
        exact = float(2 * mpmath.erfinv(mpmath.mpf(q)) ** 2)
    assert x == pytest.approx(exact, rel=1e-14)


def test_chi2_95_df1_bits():
    # the bisection gave 3.8414588206941147; the report rounds to 10 digits
    assert chi2_quantile(0.95, 1) == 3.8414588206941236


def test_chi2_edges():
    assert chi2_quantile(0.0, 4) == 0.0
    assert chi2_cdf(0.0, 4) == 0.0
    with pytest.raises(ValueError):
        chi2_quantile(1.0, 4)
    with pytest.raises(ValueError):
        chi2_cdf(1.0, -1)


def test_gamma_p_domain():
    with pytest.raises(ValueError):
        gamma_p(-1.0, 1.0)
    with pytest.raises(ValueError):
        gamma_p(1.0, -1.0)
    assert gamma_p(2.5, 0.0) == 0.0


def test_normal_quantile_values():
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert normal_quantile(0.95) == pytest.approx(1.644854, abs=1e-6)
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.025) == pytest.approx(-1.959964, abs=1e-6)
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)


def test_gamma_p_against_erf_identity():
    # P(1/2, x) = erf(sqrt(x)) is an independent closed form
    for x in (0.1, 1.0, 2.5, 9.0):
        assert gamma_p(0.5, x) == pytest.approx(math.erf(math.sqrt(x)), abs=1e-14)
