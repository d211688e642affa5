"""Negative log-likelihood surfaces and the observed information matrix.

The GEV surface is ``m*log(sigma) + (1+1/xi)*sum(log t_i) + sum(t_i**(-1/xi))``
with ``t_i = 1 + xi*(x_i - mu)/sigma`` required positive for every
observation; shapes with ``|xi| < GUMBEL_XI_EPS`` use the Gumbel surface
``m*log(sigma) + sum(z_i) + sum(exp(-z_i))`` instead.  Points that violate a
constraint (or whose value overflows) map to a finite penalty, never NaN, so
the simplex search always has comparable values; a point exactly on the
support boundary counts as a violation.

Hot evaluations go through the numpy kernels in ``blockmax._core``.  The
row kernels here take a whole pass of lanes, each lane one parameter point
on one row of a sample matrix, and run the core kernels over it in blocks of
at most ``BLOCK_ELEMENTS`` values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _core
from .data import as_values
from .gev import GUMBEL_XI_EPS, GevParams

__all__ = [
    "BLOCK_ELEMENTS",
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


# Values per kernel call.  A pass over more lanes is cut into blocks of rows,
# each gathered on its own, so the temporaries of a pass stay at about
# twenty arrays of this size however many lanes it has.
BLOCK_ELEMENTS = 16_384


def _block_lanes(X):
    """Lanes per block of a pass over the rows of X."""
    return max(1, BLOCK_ELEMENTS // max(1, X.shape[1]))


def _blocks(X, rows, lanes):
    """``(part, block)`` per block of a pass of ``lanes`` lanes: a slice of the
    lanes and their rows of X, ``X[rows[part]]``, or ``X[part]`` where
    ``rows`` is None."""
    size = _block_lanes(X)
    for a in range(0, lanes, size):
        part = slice(a, a + size)
        yield part, X[part] if rows is None else X[rows[part]]


def _by_blocks(kernel, X, rows, *params):
    """``kernel`` over a pass, block by block, its outputs joined."""
    if params[0].size <= _block_lanes(X):
        return kernel(X if rows is None else X[rows], *params)
    parts = [kernel(block, *(p[part] for p in params)) for part, block in _blocks(X, rows, params[0].size)]
    return tuple(np.concatenate(field) for field in zip(*parts))


def _subset(rows, lanes):
    """The rows of X that the lanes ``lanes`` of a pass read."""
    return lanes if rows is None else rows[lanes]


# The row kernels below evaluate a pass: lane i at its own parameters, on row
# ``rows[i]`` of X (on row i where ``rows`` is None, which a broadcast view
# of one sample serves without a copy).  Lane i returns bit for bit what the
# one-lane call on that row returns, however the pass is cut into blocks.


def gev_nllh_rows(X, mu, sigma, xi, rows=None):
    """Row-wise :func:`gev_nllh_value`: ``(value, valid)`` arrays of a pass,
    lanes with ``|xi| < GUMBEL_XI_EPS`` on the Gumbel surface."""
    gumbel = np.abs(xi) < GUMBEL_XI_EPS
    if not gumbel.any():
        return _by_blocks(_core.gev_nllh_rows, X, rows, mu, sigma, xi)
    value = np.empty(xi.size)
    valid = np.empty(xi.size, dtype=bool)
    for lanes, kernel, params in ((np.flatnonzero(gumbel), _core.gumbel_nllh_rows, (mu, sigma)),
                                  (np.flatnonzero(~gumbel), _core.gev_nllh_rows, (mu, sigma, xi))):
        if lanes.size:
            value[lanes], valid[lanes] = _by_blocks(kernel, X, _subset(rows, lanes),
                                                    *(p[lanes] for p in params))
    return value, valid


def gumbel_nllh_rows(X, mu, sigma, rows=None):
    """Row-wise :func:`gumbel_nllh_value`: ``(value, valid)`` arrays of a pass."""
    return _by_blocks(_core.gumbel_nllh_rows, X, rows, mu, sigma)


def gev_derivatives_rows(X, mu, sigma, xi, rows=None):
    """Row-wise ``(value, valid, score, info)`` of the GEV surface in (mu, sigma, xi).

    ``value`` and ``valid`` are :func:`gev_nllh_rows`' bit for bit, lanes with
    ``|xi| < GUMBEL_XI_EPS`` on the Gumbel surface; ``score`` (lanes, 3) and
    ``info`` (lanes, 3, 3) are the gradient and the Hessian of the GEV
    negative log-likelihood, continuous through xi = 0.

    The closed forms run block by block.  The lanes whose |xi*z| stays
    within the series radius take their sums from the series instead, all
    of them together, at most BLOCK_ELEMENTS values per call; the lanes on
    the Gumbel surface take their values from one Gumbel pass.
    """
    if xi.size <= _block_lanes(X):
        value, valid, sums, series = _core.gev_derivative_sums(
            X if rows is None else X[rows], mu, sigma, xi)
    else:
        value, valid, sums, series = zip(*(
            _core.gev_derivative_sums(block, mu[part], sigma[part], xi[part])
            for part, block in _blocks(X, rows, xi.size)))
        value, valid, series = (np.concatenate(field) for field in (value, valid, series))
        sums = [np.concatenate(column) for column in zip(*sums)]
    if series.any():
        near = np.flatnonzero(series)
        for part, block in _blocks(X, _subset(rows, near), near.size):
            lanes = near[part]
            exact = _core.gev_series_sums(block, mu[lanes], sigma[lanes], xi[lanes])
            for total, term in zip(sums, exact):
                total[lanes] = term
    gumbel = np.abs(xi) < GUMBEL_XI_EPS
    if gumbel.any():
        lanes = np.flatnonzero(gumbel)
        value[lanes], valid[lanes] = gumbel_nllh_rows(X, mu[lanes], sigma[lanes], _subset(rows, lanes))
    score, info = _core.score_info(X.shape[1], sigma, *sums[:5], sums[5:])
    return value, valid, score, info


def gumbel_derivatives_rows(X, mu, sigma, rows=None):
    """Row-wise ``(value, valid, score, info)`` of the Gumbel surface in (mu, sigma)."""
    return _by_blocks(_core.gumbel_derivatives_rows, X, rows, mu, sigma)


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
