"""Negative log-likelihood surfaces and the observed information matrix.

The GEV surface is ``m*log(sigma) + (1+1/xi)*sum(log t_i) + sum(t_i**(-1/xi))``
with ``t_i = 1 + xi*(x_i - mu)/sigma`` required positive for every
observation; shapes with ``|xi| < GUMBEL_XI_EPS`` use the Gumbel surface
``m*log(sigma) + sum(z_i) + sum(exp(-z_i))`` instead.  Points that violate a
constraint (or whose value overflows) map to a finite penalty, never NaN, so
the simplex search always has comparable values; a point exactly on the
support boundary counts as a violation.

Hot evaluations go through the numpy kernels in ``blockmax._core``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _core
from .data import as_values
from .gev import GUMBEL_XI_EPS, GevParams

__all__ = [
    "NegLogLik",
    "ObservedInfo",
    "SingularInformationError",
    "gev_derivatives_rows",
    "gev_nllh_rows",
    "gev_nllh_value",
    "gumbel_derivatives_rows",
    "gumbel_nllh_rows",
    "gumbel_nllh_value",
    "nllh_gev",
    "nllh_gumbel",
    "observed_information",
]

PENALTY = _core.PENALTY


class SingularInformationError(Exception):
    """Observed information cannot be inverted; carries the condition estimate."""

    def __init__(self, message, condition_estimate=float("inf")):
        super().__init__(message)
        self.condition_estimate = condition_estimate


@dataclass(frozen=True)
class NegLogLik:
    """Negative log-likelihood value plus a validity flag.

    ``valid`` means the parameters satisfy every support constraint and the
    value is the exact (finite) negative log-likelihood; otherwise ``value``
    is the penalty surface.
    """

    value: float
    valid: bool


@dataclass(frozen=True)
class ObservedInfo:
    """Hessian of the negative log-likelihood, with its condition number."""

    matrix: np.ndarray
    condition_estimate: float


def gev_nllh_value(values: np.ndarray, mu: float, sigma: float, xi: float):
    """Fast path: (value, valid) for the GEV surface, switching at GUMBEL_XI_EPS."""
    if abs(xi) < GUMBEL_XI_EPS:
        return _core.gumbel_nllh(values, mu, sigma)
    return _core.gev_nllh(values, mu, sigma, xi)


def gumbel_nllh_value(values: np.ndarray, mu: float, sigma: float):
    """Fast path: (value, valid) for the Gumbel surface."""
    return _core.gumbel_nllh(values, mu, sigma)


def gev_nllh_rows(X: np.ndarray, mu: np.ndarray, sigma: np.ndarray, xi: np.ndarray):
    """Row-wise :func:`gev_nllh_value`: one (mu, sigma, xi) lane per row of ``X``.

    Returns ``(value, valid)`` arrays; lane r equals ``gev_nllh_value(X[r], ...)``
    bit for bit, lanes with ``|xi| < GUMBEL_XI_EPS`` on the Gumbel surface.
    """
    gumbel = np.abs(xi) < GUMBEL_XI_EPS
    if not gumbel.any():
        return _core.gev_nllh_rows(X, mu, sigma, xi)
    value = np.empty(xi.size)
    valid = np.empty(xi.size, dtype=bool)
    value[gumbel], valid[gumbel] = _core.gumbel_nllh_rows(X[gumbel], mu[gumbel], sigma[gumbel])
    rest = ~gumbel
    if rest.any():
        value[rest], valid[rest] = _core.gev_nllh_rows(X[rest], mu[rest], sigma[rest], xi[rest])
    return value, valid


def gumbel_nllh_rows(X: np.ndarray, mu: np.ndarray, sigma: np.ndarray):
    """Row-wise :func:`gumbel_nllh_value`: ``(value, valid)`` arrays."""
    return _core.gumbel_nllh_rows(X, mu, sigma)


def gev_derivatives_rows(X: np.ndarray, mu: np.ndarray, sigma: np.ndarray, xi: np.ndarray):
    """Row-wise ``(value, valid, score, info)`` of the GEV surface in (mu, sigma, xi).

    ``value`` and ``valid`` are :func:`gev_nllh_rows`' bit for bit, lanes with
    ``|xi| < GUMBEL_XI_EPS`` on the Gumbel surface; ``score`` (lanes, 3) and
    ``info`` (lanes, 3, 3) are the gradient and the Hessian of the GEV
    negative log-likelihood, continuous through xi = 0.  Lane r equals the
    call on ``X[r:r+1]`` bit for bit.
    """
    value, valid, score, info = _core.gev_derivatives_rows(X, mu, sigma, xi)
    gumbel = np.abs(xi) < GUMBEL_XI_EPS
    if gumbel.any():
        value[gumbel], valid[gumbel] = _core.gumbel_nllh_rows(X[gumbel], mu[gumbel], sigma[gumbel])
    return value, valid, score, info


def gumbel_derivatives_rows(X: np.ndarray, mu: np.ndarray, sigma: np.ndarray):
    """Row-wise ``(value, valid, score, info)`` of the Gumbel surface in (mu, sigma)."""
    return _core.gumbel_derivatives_rows(X, mu, sigma)


def _check_nonempty(values):
    if values.size == 0:
        raise ValueError("sample must be nonempty")
    return values


def nllh_gev(sample, p: GevParams | tuple) -> NegLogLik:
    """Negative GEV log-likelihood of a sample at (mu, sigma, xi)."""
    values = _check_nonempty(as_values(sample))
    mu, sigma, xi = (p.mu, p.sigma, p.xi) if isinstance(p, GevParams) else p
    value, valid = gev_nllh_value(values, mu, sigma, xi)
    return NegLogLik(value, valid)


def nllh_gumbel(sample, mu: float, sigma: float) -> NegLogLik:
    """Negative Gumbel log-likelihood of a sample at (mu, sigma)."""
    values = _check_nonempty(as_values(sample))
    value, valid = gumbel_nllh_value(values, mu, sigma)
    return NegLogLik(value, valid)


def observed_information(sample, p: GevParams, model: str = "gev") -> ObservedInfo:
    """Observed information: Hessian of the negative log-likelihood at ``p``.

    ``model="gumbel"`` differentiates over (mu, sigma) only, giving a 2x2
    matrix; the default differentiates over (mu, sigma, xi).  The matrix is
    the closed form of the derivative row kernels, so it scales exactly with
    the units of the data.  Parameters outside the support, and a non-finite
    or hopelessly ill-conditioned matrix, raise SingularInformationError
    with the condition estimate attached.
    """
    values = _check_nonempty(as_values(sample))[None, :]
    mu, sigma = np.array([p.mu]), np.array([p.sigma])
    if model == "gumbel":
        _, valid, _, info = gumbel_derivatives_rows(values, mu, sigma)
    elif model == "gev":
        _, valid, _, info = gev_derivatives_rows(values, mu, sigma, np.array([p.xi]))
    else:
        raise ValueError(f"unknown model {model!r}")

    if not valid[0]:
        raise SingularInformationError("parameters outside the valid region")
    matrix = info[0]
    if not np.all(np.isfinite(matrix)):
        raise SingularInformationError("observed information has non-finite entries")
    condition = float(np.linalg.cond(matrix))
    if not np.isfinite(condition) or condition > 1e13:
        raise SingularInformationError(
            f"observed information is ill-conditioned (cond ~ {condition:.3g})",
            condition_estimate=condition,
        )
    return ObservedInfo(matrix=matrix, condition_estimate=condition)
