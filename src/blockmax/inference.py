"""Model fitting and uncertainty quantification.

Maximum likelihood fits for the GEV and Gumbel models (damped Newton steps
on the standardized sample, with Nelder-Mead on the penalized negative
log-likelihood as the fallback), the Newton refits of resampled samples,
standard errors from the inverse observed information, normal-approximation
intervals, the nested likelihood-ratio test, AIC, and the delta method.
Profile likelihood lives in :mod:`blockmax.profiles`; ``profile`` and
``ProfileCurve`` are reachable here too.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import as_values
from .gev import GevParams
from .likelihood import (
    BLOCK_ELEMENTS,
    PENALTY,
    SingularInformationError,
    gev_derivatives_rows,
    gev_nllh_rows,
    gev_nllh_value,
    gumbel_derivatives_rows,
    gumbel_nllh_rows,
    gumbel_nllh_value,
    observed_information,
)
from .simplex import OptResult, minimize
from .special import chi2_quantile, normal_quantile

__all__ = [
    "ConvergenceError",
    "DegenerateSampleError",
    "FitResult",
    "LrtResult",
    "ProfileBracketError",
    "ProfileCurve",
    "Refit",
    "Regularity",
    "aic",
    "delta_method",
    "fit_gev",
    "fit_gumbel",
    "lrt",
    "normal_ci",
    "profile",
]

MIN_FIT_SIZE = 10
# A fitted scale at or below this fraction of the sample range has collapsed:
# with most observations tied, the likelihood grows without bound as sigma -> 0.
SCALE_FLOOR = 1e-12
EULER_GAMMA = 0.5772157
# Full fits start at the PWM estimate (_pwm_rows) with its shape kept within
# [-PWM_XI, 1 - PWM_XI], and its scale widened by half, at most WIDENINGS
# times, until the sample is inside the support.
PWM_XI = 0.45
WIDENINGS = 60
# Newton refits (Refit with a start point).  A lane stops once its squared
# Newton decrement g'H^-1 g, the squared length of its step in standard
# errors, is at most NEWTON_TOL, after one last full step; steps with a
# decrement at most FULL_STEP are taken whole, larger ones are halved until
# the nllh drops by ARMIJO times the predicted decrease, at most HALVINGS
# times.  A lane that is not done after NEWTON_STEPS steps falls back to the
# simplex search, as does one that enters the nonregular shapes.
NEWTON_TOL = 1e-10
FULL_STEP = 1e-6
ARMIJO = 1e-4
HALVINGS = 30
NEWTON_STEPS = 20
NONREGULAR_XI = -0.5
# at or below this shape the GEV likelihood has no maximum (Smith 1985)
UNBOUNDED_XI = -1.0
# "Free" Newton lanes (profile grid points not started from their inner
# neighbour, see blockmax.profiles._lockstep) step on the information with
# its eigenvalues made positive where it is indefinite (_modified_direction,
# eigenvalues at least EIGEN_FLOOR times the largest), and stop after
# FREE_STEPS steps or FREE_HALVINGS halvings of one step, to be tried again
# from a nearer start: so every wave ends within a few steps.
FREE_STEPS = 8
FREE_HALVINGS = 4
EIGEN_FLOOR = 1e-6
_PARAMETERS = {"gev": ("mu", "sigma", "xi"), "gumbel": ("mu", "sigma")}


NOT_CONVERGED = "not_converged"
PENALIZED_OPTIMUM = "penalized_optimum"
DEGENERATE_SAMPLE = "degenerate_sample"

# why a Newton lane fell back to the simplex search
INDEFINITE = "indefinite"  # the information is not positive definite
SUPPORT = "support"  # the point, or every point tried along the step, is outside the support
LINE_SEARCH = "line_search"  # no sufficient decrease along the step
STEP_CAP = "step_cap"  # not converged in NEWTON_STEPS steps
NONREGULAR = "nonregular"  # xi <= NONREGULAR_XI (Smith 1985)


class ConvergenceError(Exception):
    """The likelihood maximization failed; ``cause`` says how.

    ``NOT_CONVERGED``: the simplex search ran out of iterations.
    ``PENALIZED_OPTIMUM``: it converged, but onto the penalty surface.
    """

    def __init__(self, message: str, cause: str = NOT_CONVERGED):
        super().__init__(message)
        self.cause = cause


class DegenerateSampleError(ValueError):
    """No scale can be fitted: the observations are all equal, or so tied that
    the fitted scale collapses (at most ``SCALE_FLOOR`` times the sample range)."""

    cause = DEGENERATE_SAMPLE


class ProfileBracketError(ValueError):
    """Profile grid does not bracket the deviance crossing; names the side."""

    def __init__(self, side: str):
        super().__init__(f"profile grid does not bracket the confidence bound on the {side} side")
        self.side = side


class Regularity(Enum):
    """Asymptotic status of the maximum likelihood estimator by shape value.

    Estimators are regular (usual asymptotics) for shape > -0.5, generally
    obtainable but non-standard for -1 < shape <= -0.5, and unlikely to be
    obtainable at all for shape <= -1.
    """

    REGULAR = "regular"
    NON_STANDARD = "non_standard"
    UNOBTAINABLE = "unobtainable"


def smith_regularity(xi: float) -> Regularity:
    if xi > NONREGULAR_XI:
        return Regularity.REGULAR
    if xi > UNBOUNDED_XI:
        return Regularity.NON_STANDARD
    return Regularity.UNOBTAINABLE


@dataclass(frozen=True)
class FitResult:
    """Fitted model with covariance from the inverse observed information.

    ``cov``/``se`` are None when the information matrix could not be formed
    or inverted (the fit itself is still returned).
    """

    model: str  # "gev" | "gumbel"
    params: GevParams
    nllh: float
    cov: np.ndarray | None
    se: np.ndarray | None
    regularity: Regularity
    opt: OptResult

    @property
    def n_params(self) -> int:
        return 3 if self.model == "gev" else 2

    @property
    def theta(self) -> np.ndarray:
        p = self.params
        if self.model == "gev":
            return np.array([p.mu, p.sigma, p.xi])
        return np.array([p.mu, p.sigma])


def _moment_rows(Z):
    """The Gumbel method-of-moments estimate ``(lanes, 2)`` of each row:
    sigma from the variance, mu from the mean."""
    sigma = np.sqrt(6.0 * Z.var(axis=1, ddof=1)) / math.pi
    return np.stack([Z.mean(axis=1) - EULER_GAMMA * sigma, np.maximum(sigma, 1e-12)], axis=1)


def _moment_start(values: np.ndarray) -> tuple[float, float]:
    """:func:`_moment_rows` of one sample."""
    mu0, sigma0 = _moment_rows(values[None, :])[0].tolist()
    return mu0, sigma0


def _covariance(sample, params, model):
    try:
        info = observed_information(sample, params, model=model)
        cov = np.linalg.inv(info.matrix)
    except (SingularInformationError, np.linalg.LinAlgError):
        return None, None
    cov = 0.5 * (cov + cov.T)
    diag = np.diag(cov)
    if not np.all(np.isfinite(cov)) or np.any(diag <= 0):
        return None, None
    return cov, np.sqrt(diag)


def _check_fit_sample(sample) -> np.ndarray:
    values = as_values(sample)
    if values.size < MIN_FIT_SIZE:
        raise ValueError(f"need at least {MIN_FIT_SIZE} observations, got {values.size}")
    if values.min() == values.max():
        raise DegenerateSampleError(
            f"all {values.size} observations equal {values[0]:g}; the scale cannot be fitted"
        )
    return values


def _search(values, model) -> OptResult:
    """The simplex search: from the moment start (with shape 0.1 for the
    GEV), on the scalar kernel.  Full fits run it on the standardized rows
    that Newton does not solve."""
    mu0, sigma0 = _moment_start(values)
    if model == "gev":
        x0, nllh_value = np.array([mu0, sigma0, 0.1]), gev_nllh_value
    else:
        x0, nllh_value = np.array([mu0, sigma0]), gumbel_nllh_value

    def objective(theta):
        return nllh_value(values, *theta.tolist())[0]

    # the kernels grade an overflow as a penalty; a search that walks the scale
    # toward 0 (tied observations) need not warn about it on the way
    with np.errstate(over="ignore"):
        return minimize(objective, x0)


def _collapsed(sigma, spread):
    """Whether a fitted scale is negligible against the sample range (elementwise)."""
    return sigma <= SCALE_FLOOR * spread


def _row_quantile(X, q):
    """The q-quantile of each row of X, linear between order statistics.

    By ``np.partition``: ``np.median`` and ``np.percentile`` would import
    ``numpy.ma``, about 1.2 MB of resident memory, on their first call.
    """
    position = q * (X.shape[1] - 1)
    low = math.floor(position)
    high = min(low + 1, X.shape[1] - 1)
    part = np.partition(X, (low, high) if high > low else low, axis=1)
    return part[:, low] + (position - low) * (part[:, high] - part[:, low])


def _standardize(X):
    """``(Z, center, scale)``: each row of X as z = (x - center)/scale.

    The center is the row's median and the scale its median absolute
    deviation, or its interquartile range where that is 0, or its standard
    deviation where that is 0 too (the row is not constant).  Every step is
    per row, so a row's Z is that of the one-row call.
    """
    center = _row_quantile(X, 0.5)
    scale = _row_quantile(np.abs(X - center[:, None]), 0.5)
    tied = scale == 0.0
    if tied.any():
        scale[tied] = _row_quantile(X[tied], 0.75) - _row_quantile(X[tied], 0.25)
        tied = scale == 0.0
        if tied.any():
            scale[tied] = [row.std() for row in X[tied]]
    Z = X - center[:, None]
    Z /= scale[:, None]
    return Z, center, scale


def _pwm_rows(Z):
    """The probability-weighted-moment GEV estimate of each row (Hosking,
    Wallis & Wood 1985, with their approximation of the shape), its shape
    kept within [-PWM_XI, 1 - PWM_XI], and the scale widened by half until
    every value of the row is inside the support."""
    n = Z.shape[1]
    S = np.sort(Z, axis=1)
    rank = np.arange(n) / (n - 1.0)  # (j - 1)/(n - 1) for the j-th smallest
    b0 = S.mean(axis=1)
    b1 = (S * rank).sum(axis=1) / n
    b2 = (S * (rank * (np.arange(n) - 1.0) / (n - 2.0))).sum(axis=1) / n
    l2 = 2.0 * b1 - b0
    c = l2 / (3.0 * b2 - b0) - math.log(2.0) / math.log(3.0)
    k = np.clip(7.8590 * c + 2.9554 * c * c, PWM_XI - 1.0, PWM_XI)  # k = -xi
    k[np.abs(k) < 1e-6] = 1e-6  # (1 - 2^-k)/k and (gamma - 1)/k tend to log 2 and -EULER_GAMMA
    gamma = np.array([math.gamma(1.0 + v) for v in k.tolist()])
    sigma = l2 * k / (gamma * -np.expm1(-k * math.log(2.0)))
    mu = b0 + sigma * (gamma - 1.0) / k
    edge = np.where(k < 0.0, S[:, 0], S[:, -1])  # the value nearest the bound
    for _ in range(WIDENINGS):
        outside = 1.0 - k * (edge - mu) / sigma <= 0.0
        if not outside.any():
            break
        sigma[outside] *= 1.5
    return np.stack([mu, sigma, -k], axis=1)


def _fit_rows(X, model, compute_se=False):
    """Maximum likelihood fits of the rows of X, none of them constant.

    Each row is standardized (:func:`_standardize`) and is a lane of one
    damped Newton solve (:func:`_newton_rows`) from the PWM start (GEV) or
    the moment start (Gumbel); the lanes step on the eigenvalue-floored
    information where it is indefinite, within the step and halving caps of
    the refits (``patient``).  A lane that falls back runs the simplex search
    (:func:`_search`) on its standardized row, and where that stands, Newton
    steps from its optimum finish it; a GEV optimum with a nonregular shape
    falls back from those at their first iteration (:func:`_newton_rows`)
    and keeps the search's.  The estimate
    maps back exactly: mu = center + scale*mu_z, sigma = scale*sigma_z, the
    same xi, and the covariance (from the information at the standardized
    optimum) by the diagonal Jacobian (scale, scale[, 1]).  Every step is
    per lane, so a row's results are bit for bit those of the one-row call.

    Returns ``(theta, nllh, cause, opts, covs)``: per row the estimate, the
    nllh of the row there (nllh_z + n*log(scale) where rounding leaves theta
    just outside the support), ``""`` or why the fit fails
    (NOT_CONVERGED, PENALIZED_OPTIMUM, DEGENERATE_SAMPLE), its OptResult
    (where Newton solved it, ``iterations`` counts its Newton iterations and
    ``evaluations`` its kernel passes), and,
    with ``compute_se``, ``(cov, se)`` where the fit stands and the
    information can be inverted, else None.
    """
    gev = model == "gev"
    Z, center, scale = _standardize(X)
    lanes, n = Z.shape
    kernel = gev_derivatives_rows if gev else gumbel_derivatives_rows
    nllh_rows = gev_nllh_rows if gev else gumbel_nllh_rows
    iterations = np.zeros(lanes, dtype=int)
    evaluations = np.zeros(lanes, dtype=int)

    def newton(rows, start):
        """``(theta, f_min, cause)`` of free, patient Newton lanes on the rows ``rows`` of Z."""

        def derivatives(lanes, points):
            evaluations[rows[lanes]] += 1
            return kernel(Z, *points.T, rows=rows[lanes])

        def nllh_at(lanes, points):
            evaluations[rows[lanes]] += 1
            return nllh_rows(Z, *points.T, rows=rows[lanes])

        theta, f_min, cause, steps = _newton_rows(
            derivatives, nllh_at, n, start, 2 if gev else None,
            np.ones(rows.size, dtype=bool), patient=True)
        iterations[rows] += steps
        return theta, f_min, cause

    theta_z, f_z, why = newton(np.arange(lanes), _pwm_rows(Z) if gev else _moment_rows(Z))
    opts = [None] * lanes
    searched = np.flatnonzero(why != "")
    for r in searched:
        opts[r] = _search(Z[r], model)
        theta_z[r], f_z[r] = opts[r].x_min, opts[r].f_min
    converged = np.array([opt is None or opt.converged for opt in opts], dtype=bool)
    penalized = f_z >= PENALTY
    collapsed = ~penalized & _collapsed(theta_z[:, 1], Z.max(axis=1) - Z.min(axis=1))
    # a search that stands is finished by Newton steps from its optimum, so
    # that it is as exact as a lane Newton solved; in the nonregular shapes
    # the first iteration falls back, and the search's optimum stays
    finish = searched[(converged & ~penalized & ~collapsed)[searched]]
    if finish.size:
        exact, f_exact, failed = newton(finish, theta_z[finish])
        done = failed == ""
        theta_z[finish[done]], f_z[finish[done]] = exact[done], f_exact[done]

    theta = theta_z.copy()
    theta[:, 0] = center + scale * theta_z[:, 0]
    theta[:, 1] = scale * theta_z[:, 1]
    # the nllh of the data at theta, bit for bit the surface there; mapped
    # from the standardized one where rounding puts theta outside the support
    nllh, inside = nllh_rows(X, *theta.T)
    for r in np.flatnonzero(~inside):
        nllh[r] = f_z[r] + n * math.log(scale[r])
    # a scale that collapsed onto tied observations fails as such whether or
    # not the search converged on its way to sigma -> 0
    cause = np.full(lanes, "", dtype=object)
    cause[~converged] = NOT_CONVERGED
    cause[converged & penalized] = PENALIZED_OPTIMUM
    cause[collapsed] = DEGENERATE_SAMPLE
    for r, opt in enumerate(opts):
        if opt is None:
            opt = OptResult(theta[r], nllh[r], int(iterations[r]), True, 0, int(evaluations[r]))
        else:
            opt = dataclasses.replace(opt, x_min=theta[r], f_min=nllh[r])
        opts[r] = opt
    covs = [None] * lanes
    if compute_se:
        for r in np.flatnonzero(cause == ""):
            params = GevParams(*theta_z[r]) if gev else GevParams(*theta_z[r], 0.0)
            cov_z, se_z = _covariance(Z[r], params, model)
            if cov_z is not None:
                jacobian = np.array([scale[r], scale[r], 1.0][: theta.shape[1]])
                covs[r] = (cov_z * np.outer(jacobian, jacobian), se_z * jacobian)
    return theta, nllh, cause, opts, covs


def _fit(sample, model, compute_se) -> FitResult:
    values = _check_fit_sample(sample)
    theta, nllh, cause, (opt,), (cov,) = _fit_rows(values[None, :], model, compute_se)
    if cause[0] == NOT_CONVERGED:
        raise ConvergenceError(
            f"simplex search did not converge in {opt.iterations} iterations", NOT_CONVERGED
        )
    if cause[0] == PENALIZED_OPTIMUM:
        raise ConvergenceError(
            "no valid parameter region found (penalized optimum)", PENALIZED_OPTIMUM
        )
    if cause[0] == DEGENERATE_SAMPLE:
        raise DegenerateSampleError(
            f"the fitted scale {theta[0, 1]:g} collapsed onto tied observations "
            f"(sample range {values.max() - values.min():g}); the scale cannot be fitted"
        )
    gev = model == "gev"
    params = GevParams(*theta[0]) if gev else GevParams(*theta[0], 0.0)
    cov, se = cov or (None, None)
    return FitResult(
        model=model,
        params=params,
        nllh=float(nllh[0]),
        cov=cov,
        se=se,
        regularity=smith_regularity(params.xi) if gev else Regularity.REGULAR,
        opt=opt,
    )


def fit_gev(sample, compute_se: bool = True) -> FitResult:
    """Fit the three-parameter GEV model by maximum likelihood.

    The fit is Newton on the standardized sample from the PWM start, with
    the simplex search on the standardized sample as the fallback, so its
    estimate, nllh and standard errors follow the units and the offset of
    the data exactly (see :func:`_fit_rows`).  Raises ConvergenceError where
    the search does not converge or ends on the penalty surface, and
    DegenerateSampleError for a constant sample or a collapsed scale.
    """
    return _fit(sample, "gev", compute_se)


def fit_gumbel(sample, compute_se: bool = True) -> FitResult:
    """Fit the two-parameter Gumbel model by maximum likelihood, as
    :func:`fit_gev` does, from the moment start."""
    return _fit(sample, "gumbel", compute_se)


class Refit:
    """Refit statistic for resampling: the ML parameter vector of a sample.

    ``Refit(model)(values)`` is ``fit_<model>(values, compute_se=False).theta``.
    ``rows(X)`` refits every row of a sample matrix, each a lane of the
    batched fit of ``fit_<model>`` (Newton on the standardized row, the
    simplex search where it falls back; see :func:`_fit_rows`), and returns
    ``(theta, ok)``: row r of ``theta`` is bit for bit what the call on
    ``X[r]`` returns, and ``ok[r]`` is False exactly where that call raises
    ConvergenceError or DegenerateSampleError (a constant row, which is not
    fitted and whose theta is NaN, or a row whose fitted scale collapsed).
    A ``failures`` Counter, when given, gains the ``cause`` of every failed
    row.

    ``Refit(model, start)``, with ``start`` the full-sample estimate, refits
    each row by damped Newton steps from ``start`` on the closed-form score
    and information instead (see NEWTON_TOL).  A row whose information is
    not positive definite, that leaves the support, that does not converge
    in NEWTON_STEPS steps or that enters the nonregular shapes falls back to
    the fit of ``fit_<model>``, and gets exactly the bits of
    ``Refit(model)``.  ``ok`` and the failure causes follow the same rules,
    and the call is the one-row case of ``rows``.  ``counts`` tallies the
    rows refitted by Newton from ``start`` (``newton``), their Newton
    iterations (``steps``) and the fallbacks by cause; a resampling round
    split over processes adds the tallies of its workers' shares, so they
    are those of the serial run.
    """

    def __init__(self, model: str, start=None):
        if model not in ("gev", "gumbel"):
            raise ValueError(f"unknown model {model!r}")
        self.model = model
        self.start = None
        if start is not None:
            self.start = np.array(start, dtype=float)
            if self.start.shape != (len(_PARAMETERS[model]),) or not np.all(np.isfinite(self.start)):
                raise ValueError(f"start must be a finite {model} parameter vector")
        self.counts: Counter = Counter()

    def __call__(self, values) -> np.ndarray:
        if self.start is None:
            return _fit(values, self.model, compute_se=False).theta
        failures: Counter = Counter()
        theta, ok = self.rows(_check_fit_sample(values)[None, :], failures)
        if not ok[0]:
            (cause,) = failures
            if cause == DEGENERATE_SAMPLE:
                raise DegenerateSampleError(f"the fitted scale {theta[0, 1]:g} collapsed")
            raise ConvergenceError(f"refit failed ({cause})", cause)
        return theta[0]

    def rows(self, X, failures=None) -> tuple[np.ndarray, np.ndarray]:
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("rows expects a (lanes, n) sample matrix")
        if X.shape[1] < MIN_FIT_SIZE:
            raise ValueError(f"need at least {MIN_FIT_SIZE} observations, got {X.shape[1]}")
        constant = X.min(axis=1) == X.max(axis=1)
        if constant.any():
            theta = np.full((X.shape[0], len(_PARAMETERS[self.model])), np.nan)
            ok = ~constant
            if failures is not None:
                failures[DEGENERATE_SAMPLE] += int(np.count_nonzero(constant))
            if ok.any():
                theta[ok], fitted = self.rows(X[ok], failures)
                ok[ok] = fitted
            return theta, ok
        if self.start is None:
            theta, _, cause, _, _ = _fit_rows(X, self.model)
        else:
            theta, cause = self._newton(X)
        failed = cause != ""
        if failures is not None:
            failures.update(cause[failed].tolist())
        return theta, ~failed

    def _newton(self, X):
        """``(theta, cause)``: Newton from ``start``, :func:`_fit_rows` where it falls back."""
        gev = self.model == "gev"
        kernel = gev_derivatives_rows if gev else gumbel_derivatives_rows
        nllh_rows = gev_nllh_rows if gev else gumbel_nllh_rows
        theta, _, why, steps = _newton_rows(
            lambda lanes, points: kernel(X, *points.T, rows=lanes),
            lambda lanes, points: nllh_rows(X, *points.T, rows=lanes),
            X.shape[1],
            np.tile(self.start, (X.shape[0], 1)),
            2 if gev else None,
        )
        fallback = why != ""
        cause = np.full(X.shape[0], "", dtype=object)
        cause[~fallback & _collapsed(theta[:, 1], X.max(axis=1) - X.min(axis=1))] = DEGENERATE_SAMPLE
        if fallback.any():
            theta[fallback], _, cause[fallback], _, _ = _fit_rows(X[fallback], self.model)
        self.counts.update(why[fallback].tolist())
        self.counts["newton"] += int(np.count_nonzero(~fallback))
        self.counts["steps"] += int(steps.sum())
        return theta, cause


def _newton_direction(g, H):
    """Per lane: the step -H^-1 g, the squared decrement g'H^-1 g, and whether
    H is positive definite, by a Cholesky factorization written out lane-wise
    (on columns of lanes, reading the lower triangle of H)."""
    d = g.shape[1]
    L = [[None] * d for _ in range(d)]
    definite = np.ones(g.shape[0], dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(d):
            pivot = H[:, j, j]
            for k in range(j):
                pivot = pivot - L[j][k] * L[j][k]
            definite &= pivot > 0.0
            L[j][j] = np.sqrt(np.where(definite, pivot, 1.0))
            for i in range(j + 1, d):
                entry = H[:, i, j]
                for k in range(j):
                    entry = entry - L[i][k] * L[j][k]
                L[i][j] = entry / L[j][j]
        w = [None] * d  # L w = g
        for i in range(d):
            entry = g[:, i]
            for k in range(i):
                entry = entry - L[i][k] * w[k]
            w[i] = entry / L[i][i]
        step = [None] * d  # L' step = -w
        for i in reversed(range(d)):
            entry = -w[i]
            for k in range(i + 1, d):
                entry = entry - L[k][i] * step[k]
            step[i] = entry / L[i][i]
        decrement = w[0] * w[0]
        for i in range(1, d):
            decrement = decrement + w[i] * w[i]
    step = np.stack(step, axis=1)
    definite &= np.isfinite(decrement) & np.isfinite(step).all(axis=1)
    return step, decrement, definite


def _modified_direction(g, H):
    """Per lane: the step -M^-1 g and the squared decrement g'M^-1 g, with M
    the symmetric H with each eigenvalue replaced by its absolute value, at
    least EIGEN_FLOOR times the largest: a descent direction also where H is
    indefinite (Nocedal & Wright 2006, section 3.4).  For one or two
    parameters in closed form, for three by ``eigh`` per lane; reading the
    lower triangle of H.  Lanes with a non-finite g or H get NaN."""
    if g.shape[1] == 1:
        m = np.abs(H[:, 0, 0])
        return -g / m[:, None], g[:, 0] * g[:, 0] / m
    if g.shape[1] > 2:
        return _modified_eigh(g, H)
    a, b, c = H[:, 0, 0], H[:, 1, 0], H[:, 1, 1]
    mean, radius = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
    upper, lower = mean + radius, mean - radius  # the eigenvalues
    # the eigenvector of upper is (cos t, sin t) with tan 2t = 2b / (a - c)
    t = 0.5 * np.arctan2(2.0 * b, a - c)
    cos, sin = np.cos(t), np.sin(t)
    floor = EIGEN_FLOOR * np.maximum(np.abs(upper), np.abs(lower))
    m1, m2 = np.maximum(np.abs(upper), floor), np.maximum(np.abs(lower), floor)
    p1, p2 = cos * g[:, 0] + sin * g[:, 1], cos * g[:, 1] - sin * g[:, 0]
    q1, q2 = p1 / m1, p2 / m2
    return -np.stack([cos * q1 - sin * q2, sin * q1 + cos * q2], axis=1), p1 * q1 + p2 * q2


def _modified_eigh(g, H):
    """:func:`_modified_direction` by an eigendecomposition of each lane's H,
    with the products written out per lane so no lane depends on another."""
    d = g.shape[1]
    step = np.full(g.shape, np.nan)
    decrement = np.full(g.shape[0], np.nan)
    finite = np.isfinite(g).all(axis=1) & np.isfinite(H).all(axis=(1, 2))
    if finite.any():
        w, V = np.linalg.eigh(H[finite])
        g = g[finite]
        m = np.abs(w)
        m = np.maximum(m, EIGEN_FLOOR * m.max(axis=1, keepdims=True))
        q = []  # (V'g)_i / m_i
        for i in range(d):
            p = V[:, 0, i] * g[:, 0]
            for j in range(1, d):
                p = p + V[:, j, i] * g[:, j]
            q.append(p / m[:, i])
            decrement[finite] = p * q[i] if i == 0 else decrement[finite] + p * q[i]
        for j in range(d):
            entry = V[:, j, 0] * q[0]
            for i in range(1, d):
                entry = entry + V[:, j, i] * q[i]
            step[finite, j] = -entry
    return step, decrement


def _newton_rows(derivatives, nllh_rows, width, theta, xi_column=None, free=None, patient=False):
    """Damped Newton from every row of ``theta`` (lanes, d), the lanes in lockstep.

    ``derivatives(lanes, points)`` returns ``(value, valid, score, info)`` and
    ``nllh_rows(lanes, points)`` returns ``(value, valid)`` of the objective
    of the lanes at the indices ``lanes`` (ascending) at ``points``, the
    values bit for bit the same; each lane's objective covers ``width``
    values.  A lane whose column ``xi_column``, a free shape, reaches
    NONREGULAR_XI falls back (NONREGULAR): the one place where fits, refits
    and profiles apply that rule.  The lanes of the boolean mask ``free`` step
    on :func:`_modified_direction` where their information is indefinite,
    and unless ``patient`` give up (with the cause STEP_CAP or that of the
    line search) after FREE_STEPS steps or FREE_HALVINGS halvings of one
    step; they converge as the others do, with a positive definite
    information.

    Where the first trial points of a line search cover at least
    BLOCK_ELEMENTS values (``width`` per lane), they are evaluated by
    ``derivatives``: a lane whose
    trial is accepted keeps that pass for its next iteration, which then
    evaluates only the other lanes.  Narrower trials, later halvings and the
    last full step of a converged lane go to ``nllh_rows``.  So a lane's
    last ``derivatives`` pass is at its last iterate: a rejected trial is
    followed by a pass at the lane's next point, or the lane falls back.

    Returns ``(theta, f_min, cause, iterations)``: per lane the optimum and
    its value, ``""`` or the cause of a fallback (theta and f_min are then
    meaningless), and its Newton iterations, one per point it stepped from,
    however its passes were evaluated.  Each lane's arithmetic is
    elementwise in the lane, so its result does not depend on the other
    lanes or on the gate.
    """
    theta = theta.copy()
    lanes, d = theta.shape
    cut_free = free is not None and not patient
    f_min = np.full(lanes, np.nan)
    cause = np.full(lanes, "", dtype=object)
    iterations = np.zeros(lanes, dtype=int)
    # the derivative pass of each lane whose accepted trial made it, by lane
    kept = np.zeros(lanes, dtype=bool)
    kept_pass = None
    active = np.arange(lanes)
    for k in range(NEWTON_STEPS + 1):
        if not active.size:
            break
        point = theta[active]
        if kept_pass is not None and kept[active].any():
            value, valid, score, info = (part[active] for part in kept_pass)
            fresh = ~kept[active]
            if fresh.any():
                for part, new in zip((value, valid, score, info),
                                     derivatives(active[fresh], point[fresh])):
                    part[fresh] = new
            kept[active] = False
        else:
            value, valid, score, info = derivatives(active, point)
        iterations[active] += 1
        step, decrement, definite = _newton_direction(score, info)
        why = np.full(active.size, "", dtype=object)
        why[~definite] = INDEFINITE
        bent = np.zeros(active.size, dtype=bool)  # stepping on the modified information
        if free is not None:
            bent = ~definite & free[active]
            if bent.any():
                with np.errstate(all="ignore"):
                    step[bent], decrement[bent] = _modified_direction(score[bent], info[bent])
                bent &= np.isfinite(step).all(axis=1) & (decrement > 0.0) & np.isfinite(decrement)
                why[bent] = ""
        if xi_column is not None:
            why[point[:, xi_column] <= NONREGULAR_XI] = NONREGULAR
        why[~valid] = SUPPORT
        going = why == ""
        done = going & ~bent & (decrement <= NEWTON_TOL)
        going &= ~done
        if k == NEWTON_STEPS:
            why[going] = STEP_CAP
            going[:] = False
        elif cut_free and k == FREE_STEPS:
            capped = going & free[active]
            why[capped] = STEP_CAP
            going &= ~capped

        if done.any():  # one last full step, kept unless it is outside the support
            last = point[done] + step[done]
            f_last, ok_last = nllh_rows(active[done], last)
            theta[active[done]] = np.where(ok_last[:, None], last, point[done])
            f_min[active[done]] = np.where(ok_last, f_last, value[done])

        small = going & ~bent & (decrement <= FULL_STEP)
        theta[active[small]] += step[small]
        search = np.flatnonzero(going & ~small)
        alpha = 1.0
        for halving in range(HALVINGS + 1):
            if cut_free and halving == FREE_HALVINGS + 1:
                cut = free[active[search]]
                why[search[cut]] = np.where(last_ok[cut], LINE_SEARCH, SUPPORT)
                going[search[cut]] = False
                search, last_ok = search[~cut], last_ok[~cut]
            if not search.size:
                break
            trial = point[search] + alpha * step[search]
            if halving == 0 and search.size * width >= BLOCK_ELEMENTS:
                trial_pass = derivatives(active[search], trial)
                f_trial, ok_trial = trial_pass[:2]
            else:
                trial_pass = None
                f_trial, ok_trial = nllh_rows(active[search], trial)
            accept = ok_trial & (f_trial <= value[search] - ARMIJO * alpha * decrement[search])
            theta[active[search[accept]]] = trial[accept]
            if trial_pass is not None and accept.any():
                if kept_pass is None:
                    kept_pass = (np.empty(lanes), np.empty(lanes, dtype=bool),
                                 np.empty((lanes, d)), np.empty((lanes, d, d)))
                to = active[search[accept]]
                for part, new in zip(kept_pass, trial_pass):
                    part[to] = new[accept]
                kept[to] = True
            search, last_ok = search[~accept], ok_trial[~accept]
            alpha *= 0.5
        if search.size:
            why[search] = np.where(last_ok, LINE_SEARCH, SUPPORT)
            going[search] = False

        cause[active] = why
        active = active[going]
    return theta, f_min, cause, iterations


def normal_ci(fit: FitResult, index: int, tau: float) -> tuple[float, float]:
    """Normal-approximation interval theta_i +- z_{tau/2} * se_i."""
    if fit.se is None:
        raise ValueError("fit has no standard errors")
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    center = fit.theta[index]
    half = normal_quantile(1.0 - tau / 2.0) * fit.se[index]
    return (center - half, center + half)


def delta_method(cov, gradient) -> float:
    """First-order variance of a scalar function: gradient' cov gradient."""
    cov = np.asarray(cov, dtype=float)
    gradient = np.asarray(gradient, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be a square matrix")
    if gradient.ndim != 1 or gradient.size != cov.shape[0]:
        raise ValueError("gradient and covariance dimensions disagree")
    if not np.allclose(cov, cov.T, atol=1e-8):
        raise ValueError("covariance must be symmetric")
    return float(gradient @ cov @ gradient)


@dataclass(frozen=True)
class LrtResult:
    d: float
    df: int
    reject_at_5pct: bool


def lrt(fit_null: FitResult, fit_alt: FitResult) -> LrtResult:
    """Likelihood-ratio test of the nested Gumbel null inside the GEV model.

    D = 2*(nllh_null - nllh_alt) compared against the 95% chi-square quantile
    with df = difference in parameter count.
    """
    if not (fit_null.model == "gumbel" and fit_alt.model == "gev"):
        raise ValueError("lrt expects a gumbel null fit and a gev alternative fit")
    if fit_alt.nllh > fit_null.nllh + 1e-6:
        raise ValueError("alternative fit is worse than the null; fits are inconsistent")
    d = 2.0 * (fit_null.nllh - fit_alt.nllh)
    df = fit_alt.n_params - fit_null.n_params
    return LrtResult(d=d, df=df, reject_at_5pct=d > chi2_quantile(0.95, df))


def aic(fit: FitResult) -> float:
    """Akaike information criterion: 2*nllh + 2*(free parameter count)."""
    return 2.0 * fit.nllh + 2.0 * fit.n_params


# the profile code needs the fits above; both names stay reachable here
from .profiles import ProfileCurve, profile  # noqa: E402
