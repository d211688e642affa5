"""Return levels, their parameter gradient, and delta-method intervals.

The level exceeded by a block maximum with probability ``p`` (the "1/p-block
return level") is the ``1-p`` quantile of the fitted law:

    x_p = mu - (sigma/xi) * (1 - y_p**(-xi)),   y_p = -log(1 - p)

with the ``xi = 0`` branch ``x_p = mu - sigma*log(y_p)``.  Here ``p`` is
always the exceedance probability (period = 1/p); phrasings that attach the
exceedance to ``1-p`` appear elsewhere in the literature, but only this
convention is consistent with the quantile inversion above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from ._core._kernels_py import SERIES_RADIUS, SERIES_TERMS
from .gev import GUMBEL_XI_EPS, GevParams, quantile
from .special import normal_quantile

if TYPE_CHECKING:  # pragma: no cover
    from .inference import FitResult

__all__ = [
    "LevelBasis",
    "ReturnLevelEstimate",
    "level_location",
    "level_location_shape",
    "location_for_level",
    "return_level",
    "return_level_ci",
    "return_level_gradient",
]


class LevelBasis(Enum):
    RAW_FIT = "raw_fit"
    BIAS_CORRECTED = "bias_corrected"


@dataclass(frozen=True)
class ReturnLevelEstimate:
    """Point estimate with delta-method variance and confidence bounds."""

    p: float
    period: float
    level: float
    variance: float
    ci: tuple[float, float]
    level_basis: LevelBasis


def _check_p(p: float):
    if not 0.0 < p < 1.0:
        raise ValueError("exceedance probability must lie strictly between 0 and 1")


def return_level(params: GevParams, p: float) -> float:
    """Level exceeded with probability p per block; equals quantile(params, 1-p)."""
    _check_p(p)
    return quantile(params, 1.0 - p)


def return_level_gradient(params: GevParams, p: float) -> np.ndarray:
    """Gradient (d/dmu, d/dsigma, d/dxi) of the return level in the model parameters.

    The level is ``mu - sigma*a(xi)`` with ``a`` of :func:`level_location_shape`,
    so the gradient is ``(1, -a, -sigma*a')``: three components at every
    shape, continuous through the Gumbel switch, where ``a'`` comes from its
    series (at ``xi = 0``, ``sigma*log(y_p)**2/2``).  A Gumbel covariance takes
    the first two.
    """
    a, a1, _ = level_location_shape(p)(np.array([float(params.xi)]))
    return np.array([1.0, -a[0], -params.sigma * a1[0]])


def level_location(p: float):
    """:func:`location_for_level` at a fixed ``p``: ``(level, sigma, xi=0.0) -> mu``.

    ``log y_p`` is computed once, for the many calls of a profile.  Where
    ``y_p**(-xi)`` overflows no finite location puts the level there, and
    the location is NaN.
    """
    _check_p(p)
    log_y = math.log(-math.log1p(-p))

    def location(level: float, sigma: float, xi: float = 0.0) -> float:
        if abs(xi) < GUMBEL_XI_EPS:
            return level + sigma * log_y
        try:
            return level - sigma * math.expm1(-xi * log_y) / xi
        except OverflowError:
            return math.nan

    return location


def level_location_shape(p: float):
    """``xi -> (a, da/dxi, d2a/dxi2)`` lane-wise, for the location of :func:`level_location`.

    That location is ``level + sigma*a(xi)`` with ``a = -expm1(-xi*log y_p)/xi``
    (``log y_p`` below the Gumbel switch), and the level is
    ``mu - sigma*a(xi)``: these are the derivatives a profile of the level
    needs by the chain rule, and :func:`return_level_gradient` reads its
    gradient off them, so the shape derivatives of a level are written here
    only.  ``log y_p`` is computed once per ``p``.  ``xi``
    is an array of lanes, and so is each result.  With w = xi*log y_p and
    phi(w) = -expm1(-w)/w, they are log y_p**2 * phi'(w) and
    log y_p**3 * phi''(w).  For |w| <= SERIES_RADIUS they come from the power
    series of phi, because the closed forms lose their digits to the
    cancelling 1/w**2 and 1/w**3 terms there.  Lanes where y_p**(-xi)
    overflows get infinite or NaN terms.
    """
    _check_p(p)
    log_y = math.log(-math.log1p(-p))

    def shape(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        w = xi * log_y
        with np.errstate(all="ignore"):
            e, one_minus_e = np.exp(-w), -np.expm1(-w)
            a = np.where(np.abs(xi) < GUMBEL_XI_EPS, log_y, one_minus_e / xi)
            d1 = (w * e - one_minus_e) / w**2
            d2 = (2.0 * one_minus_e - w * (w + 2.0) * e) / w**3
        series = np.abs(w) <= SERIES_RADIUS
        if series.any():
            w = w[series]
            s1 = s2 = 0.0
            for c1, c2 in _PHI_SERIES:  # Horner's rule in w
                s1 = s1 * w + c1
                s2 = s2 * w + c2
            d1[series], d2[series] = s1, s2
        return a, log_y**2 * d1, log_y**3 * d2

    return shape


# The coefficients of w**j in phi'(w) and phi''(w), phi(w) = -expm1(-w)/w =
# sum (-w)**j/(j+1)!, highest power first.
_PHI_SERIES = tuple(
    ((-1.0) ** (j + 1) * (j + 1) / math.factorial(j + 2),
     (-1.0) ** j * (j + 1) * (j + 2) / math.factorial(j + 3))
    for j in reversed(range(SERIES_TERMS))
)


def location_for_level(level: float, sigma: float, xi: float, p: float) -> float:
    """Location parameter that puts the p-exceedance return level at ``level``.

    Inverse of :func:`return_level` in mu, used to re-express the model in
    terms of (x_p, sigma, xi) when profiling a return level; NaN where
    ``y_p**(-xi)`` overflows.
    """
    return level_location(p)(level, sigma, xi)


def return_level_ci(
    fit: "FitResult",
    p: float,
    tau: float = 0.05,
    one_sided: bool = False,
    sigma_corrected: float | None = None,
) -> ReturnLevelEstimate:
    """Return level with delta-method variance and normal-theory bounds.

    Variance is the quadratic form grad' V grad of the fit covariance V with
    the first ``V.shape[0]`` components of :func:`return_level_gradient`: all
    three for a GEV fit, whatever its shape, and (d/dmu, d/dsigma) for a
    Gumbel fit.  Bounds are ``level +- z*sqrt(variance)``
    with the two-sided normal quantile z_{tau/2} by default; ``one_sided``
    switches to the one-sided ``1-tau`` quantile, matching the convention some
    published tables use.  Passing ``sigma_corrected`` substitutes a
    bias-corrected scale into the level (recorded in ``level_basis``).
    """
    _check_p(p)
    if fit.cov is None:
        raise ValueError("fit has no covariance matrix; cannot build an interval")
    params = fit.params
    basis = LevelBasis.RAW_FIT
    if sigma_corrected is not None:
        params = GevParams(params.mu, sigma_corrected, params.xi)
        basis = LevelBasis.BIAS_CORRECTED

    level = return_level(params, p)
    cov = np.asarray(fit.cov, dtype=float)
    gradient = return_level_gradient(params, p)[: cov.shape[0]]

    variance = float(gradient @ cov @ gradient)
    z = normal_quantile(1.0 - tau) if one_sided else normal_quantile(1.0 - tau / 2.0)
    half = z * math.sqrt(max(variance, 0.0))
    return ReturnLevelEstimate(
        p=p,
        period=1.0 / p,
        level=level,
        variance=variance,
        ci=(level - half, level + half),
        level_basis=basis,
    )
