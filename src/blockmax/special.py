"""Probability special functions used for interval construction.

Self-contained chi-square cdf/quantile built on the regularized lower
incomplete gamma function P(a, x): a power series is used for x < a + 1 and a
modified Lentz continued fraction for the complement otherwise.  The quantile
is found by bisection, which is immune to the poor starting values that break
Newton steps in the tails; with one degree of freedom it is the square of a
normal quantile instead, which costs one inverse normal cdf, not a bisection
of about 50 cdf evaluations.
"""

from __future__ import annotations

import math
from statistics import NormalDist

__all__ = ["chi2_cdf", "chi2_quantile", "gamma_p", "normal_quantile"]

_EPS = 1e-16
_TINY = 1e-300
_MAX_TERMS = 600

_STD_NORMAL = NormalDist()


def normal_quantile(q: float) -> float:
    """Standard normal quantile (inverse cdf)."""
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must lie strictly between 0 and 1")
    return _STD_NORMAL.inv_cdf(q)


def gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    if a <= 0.0:
        raise ValueError("a must be positive")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _series(a, x)
    return 1.0 - _continued_fraction(a, x)


def _series(a: float, x: float) -> float:
    # P(a,x) = x^a e^-x / Gamma(a) * sum x^n / (a (a+1) ... (a+n))
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_TERMS):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _continued_fraction(a: float, x: float) -> float:
    # Q(a,x) by the Lentz algorithm on the standard continued fraction.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def chi2_cdf(x: float, df: float) -> float:
    """Chi-square distribution function with df degrees of freedom."""
    if df <= 0:
        raise ValueError("df must be positive")
    if x <= 0.0:
        return 0.0
    return gamma_p(0.5 * df, 0.5 * x)


def chi2_quantile(q: float, df: float) -> float:
    """Chi-square quantile: for df = 1 the square of the normal quantile at
    (1 - q)/2, otherwise by bisection on :func:`chi2_cdf`."""
    if not 0.0 <= q < 1.0:
        raise ValueError("quantile level must lie in [0, 1)")
    if q == 0.0:
        return 0.0
    if df == 1:
        # a chi-square(1) variable is Z**2; 1 - q is exact for q >= 0.5, so the
        # upper tail keeps its digits where (1 + q)/2 would round them away
        return normal_quantile(0.5 * (1.0 - q)) ** 2
    lo, hi = 0.0, max(2.0 * df, 1.0)
    while chi2_cdf(hi, df) < q:
        hi *= 2.0
        if hi > 1e308:
            raise ArithmeticError("chi-square quantile bracket failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, df) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, lo):
            break
    return 0.5 * (lo + hi)
