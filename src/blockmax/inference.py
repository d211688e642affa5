"""Model fitting and uncertainty quantification.

Maximum likelihood fits for the GEV and Gumbel models (Nelder-Mead on the
penalized negative log-likelihood), standard errors from the inverse observed
information, normal-approximation and profile-likelihood confidence
intervals, the nested likelihood-ratio test, AIC, and the delta method.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _fork
from .data import as_values
from .gev import GevParams
from .likelihood import (
    PENALTY,
    SingularInformationError,
    gev_nllh_rows,
    gev_nllh_value,
    gumbel_nllh_rows,
    gumbel_nllh_value,
    observed_information,
)
from .returns import level_location, return_level, return_level_gradient
from .simplex import OptResult, SimplexConfig, minimize, minimize_rows
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
# Fewest grid points on each profile walk for the two walks to run in two
# processes: a fork and its pipe cost about 4 ms on a 2-vCPU VM, one or two
# warm-started grid searches at n=129.
MIN_WALK = 4
EULER_GAMMA = 0.5772157
_PARAMETERS = {"gev": ("mu", "sigma", "xi"), "gumbel": ("mu", "sigma")}


NOT_CONVERGED = "not_converged"
PENALIZED_OPTIMUM = "penalized_optimum"
DEGENERATE_SAMPLE = "degenerate_sample"


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
    if xi > -0.5:
        return Regularity.REGULAR
    if xi > -1.0:
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


def _moment_start(values: np.ndarray) -> tuple[float, float]:
    # Gumbel method-of-moments: sigma from the variance, mu from the mean.
    sigma0 = math.sqrt(6.0 * values.var(ddof=1)) / math.pi
    mu0 = values.mean() - EULER_GAMMA * sigma0
    return mu0, max(sigma0, 1e-12)


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


def _run_fit(values, objective, x0) -> OptResult:
    # the kernels grade an overflow as a penalty; a search that walks the scale
    # toward 0 (tied observations) need not warn about it on the way
    with np.errstate(over="ignore"):
        opt = minimize(objective, x0, SimplexConfig())
    if not opt.converged:
        raise ConvergenceError(
            f"simplex search did not converge in {opt.iterations} iterations", NOT_CONVERGED
        )
    if opt.f_min >= PENALTY:
        raise ConvergenceError(
            "no valid parameter region found (penalized optimum)", PENALIZED_OPTIMUM
        )
    if _collapsed(opt.x_min[1], values.max() - values.min()):
        raise DegenerateSampleError(
            f"the fitted scale {opt.x_min[1]:g} collapsed onto tied observations "
            f"(sample range {values.max() - values.min():g}); the scale cannot be fitted"
        )
    return opt


def _collapsed(sigma, spread):
    """Whether a fitted scale is negligible against the sample range (elementwise)."""
    return sigma <= SCALE_FLOOR * spread


def fit_gev(sample, compute_se: bool = True) -> FitResult:
    """Fit the three-parameter GEV model by maximum likelihood."""
    values = _check_fit_sample(sample)
    mu0, sigma0 = _moment_start(values)

    def objective(theta):
        return gev_nllh_value(values, *theta.tolist())[0]

    opt = _run_fit(values, objective, np.array([mu0, sigma0, 0.1]))
    params = GevParams(opt.x_min[0], opt.x_min[1], opt.x_min[2])
    cov, se = _covariance(values, params, "gev") if compute_se else (None, None)
    return FitResult(
        model="gev",
        params=params,
        nllh=opt.f_min,
        cov=cov,
        se=se,
        regularity=smith_regularity(params.xi),
        opt=opt,
    )


def fit_gumbel(sample, compute_se: bool = True) -> FitResult:
    """Fit the two-parameter Gumbel model by maximum likelihood."""
    values = _check_fit_sample(sample)
    mu0, sigma0 = _moment_start(values)

    def objective(theta):
        return gumbel_nllh_value(values, *theta.tolist())[0]

    opt = _run_fit(values, objective, np.array([mu0, sigma0]))
    params = GevParams(opt.x_min[0], opt.x_min[1], 0.0)
    cov, se = _covariance(values, params, "gumbel") if compute_se else (None, None)
    return FitResult(
        model="gumbel",
        params=params,
        nllh=opt.f_min,
        cov=cov,
        se=se,
        regularity=Regularity.REGULAR,
        opt=opt,
    )


class Refit:
    """Refit statistic for resampling: the ML parameter vector of a sample.

    ``Refit(model)(values)`` is ``fit_<model>(values, compute_se=False).theta``.
    ``rows(X)`` refits every row of a sample matrix at once, with one
    lockstep :func:`minimize_rows` search, and returns ``(theta, ok)``: row r
    of ``theta`` is bit for bit what the call on ``X[r]`` returns, and
    ``ok[r]`` is False exactly where that call raises ConvergenceError or
    DegenerateSampleError (a constant row, which is not searched and whose
    theta is NaN, or a row whose fitted scale collapsed).  A ``failures``
    Counter, when given, gains the ``cause`` of every failed row.
    """

    def __init__(self, model: str):
        if model not in ("gev", "gumbel"):
            raise ValueError(f"unknown model {model!r}")
        self.model = model

    def __call__(self, values) -> np.ndarray:
        fit = fit_gev if self.model == "gev" else fit_gumbel
        return fit(values, compute_se=False).theta

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
                theta[ok], searched = self.rows(X[ok], failures)
                ok[ok] = searched
            return theta, ok
        x0 = np.array([_moment_start(row) for row in X])

        def lane_rows(lanes):
            # lanes is an ascending subset of the rows; all of them needs no copy
            return X if lanes.size == X.shape[0] else X[lanes]

        if self.model == "gev":
            x0 = np.column_stack([x0, np.full(X.shape[0], 0.1)])

            def objective(lanes, points):
                return gev_nllh_rows(lane_rows(lanes), points[:, 0], points[:, 1], points[:, 2])[0]
        else:

            def objective(lanes, points):
                return gumbel_nllh_rows(lane_rows(lanes), points[:, 0], points[:, 1])[0]

        opt = minimize_rows(objective, x0, SimplexConfig())
        penalized = opt.converged & (opt.f_min >= PENALTY)
        spread = X.max(axis=1) - X.min(axis=1)
        collapsed = opt.converged & ~penalized & _collapsed(opt.x_min[:, 1], spread)
        if failures is not None:
            for cause, mask in ((NOT_CONVERGED, ~opt.converged), (PENALIZED_OPTIMUM, penalized),
                                (DEGENERATE_SAMPLE, collapsed)):
                if mask.any():
                    failures[cause] += int(np.count_nonzero(mask))
        return opt.x_min, opt.converged & ~penalized & ~collapsed


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


@dataclass(frozen=True)
class ProfileCurve:
    """Profile log-likelihood over a grid with the deviance-based interval."""

    which: str
    grid: np.ndarray
    lp: np.ndarray
    ci: tuple[float, float]
    tau: float


def _pinned(model, which, p):
    """(k, location): the coordinate of theta a profile of ``which`` pins.

    A return level pins the location slot, k = 0, and ``location`` maps
    (level, sigma[, xi]) to the location that puts the level there.
    """
    if which == "return_level":
        if p is None:
            raise ValueError("profiling a return level requires the exceedance probability p")
        return 0, level_location(p)
    if which not in _PARAMETERS[model]:
        raise ValueError(f"cannot profile {which!r} for the {model} model")
    return _PARAMETERS[model].index(which), None


def _restricted(values, model, k, location=None):
    """Profile objective ``(g, r)``: the nllh at theta with coordinate k pinned to g.

    The free parameters ``r`` fill the other slots in order; with
    ``location``, g is a return level and slot 0 gets ``location(*theta)``.
    """
    nllh = gev_nllh_value if model == "gev" else gumbel_nllh_value

    def objective(g, r):
        theta = r.tolist()
        theta.insert(k, g)
        if location is not None:
            theta[0] = location(*theta)
        return nllh(values, *theta)[0]

    return objective


def _profile_center(fit: FitResult, which: str, k: int, p):
    """(center value, its standard error, free-parameter start vector)."""
    start = np.delete(fit.theta, k)
    if which == "return_level":
        center = return_level(fit.params, p)
        se = None
        if fit.cov is not None:
            grad = return_level_gradient(fit.params, p)[: fit.n_params]
            se = math.sqrt(max(delta_method(fit.cov, grad), 0.0))
        return center, se, start
    if which not in _PARAMETERS[fit.model]:
        raise ValueError(f"cannot profile {which!r} for the {fit.model} model")
    se = None if fit.se is None else float(fit.se[k])
    return float(fit.theta[k]), se, start


def profile(
    sample,
    model: str = "gev",
    which: str = "xi",
    grid=None,
    tau: float = 0.05,
    p: float | None = None,
    n_grid: int = 100,
    fit: FitResult | None = None,
) -> ProfileCurve:
    """Profile log-likelihood and deviance confidence interval.

    For each grid value of the profiled quantity the remaining parameters are
    re-maximized (warm-started from the neighbouring grid point).  The
    interval is the set where the deviance 2*(lhat - lp) stays below the
    1-tau chi-square(1) quantile, with endpoints found by linear
    interpolation between grid points.  A default grid spans the estimate
    +- 4 standard errors and is widened automatically if it fails to bracket
    a crossing; a grid that still fails raises :class:`ProfileBracketError`.

    Profiling ``which="return_level"`` re-expresses the model in terms of
    (x_p, sigma[, xi]) by substituting the matching location parameter.
    """
    values = as_values(sample)
    if model not in _PARAMETERS:
        raise ValueError(f"unknown model {model!r}")
    k, location = _pinned(model, which, p)
    if fit is None:
        fit = fit_gev(values) if model == "gev" else fit_gumbel(values)
    lhat = -fit.nllh
    objective = _restricted(values, model, k, location)
    center, center_se, start = _profile_center(fit, which, k, p)

    if grid is not None:
        # The estimate itself is always a grid point, so the deviance minimum
        # is observed and a one-sided grid fails with the offending side named.
        grid = np.sort(np.unique(np.append(np.asarray(grid, dtype=float), center)))
        expandable = False
    else:
        if center_se is None:
            raise ValueError("fit has no standard errors; pass an explicit grid")
        half = 4.0 * center_se
        grid = np.sort(np.unique(np.append(np.linspace(center - half, center + half, n_grid), center)))
        expandable = True

    critical = chi2_quantile(1.0 - tau, 1)
    lp = _profile_values(objective, grid, center, start)

    for _ in range(3):
        if not expandable:
            break
        dev = 2.0 * (lhat - lp)
        step = grid[1] - grid[0] if grid.size > 1 else max(abs(center), 1.0) * 0.1
        n_ext = max(n_grid // 2, 2)
        extend_lo = dev[0] <= critical
        extend_hi = dev[-1] <= critical
        if not (extend_lo or extend_hi):
            break
        new_lo = grid[0] - step * np.arange(n_ext, 0, -1) if extend_lo else grid[:0]
        new_hi = grid[-1] + step * np.arange(1, n_ext + 1) if extend_hi else grid[:0]
        lp_lo, lp_hi = _walks(objective, [new_lo[::-1], new_hi], start)
        lp = np.concatenate([lp_lo[::-1], lp, lp_hi])
        grid = np.concatenate([new_lo, grid, new_hi])

    ci = _deviance_interval(grid, lp, lhat, critical)
    return ProfileCurve(which=which, grid=grid, lp=lp, ci=ci, tau=tau)


def _profile_values(objective, grid, center, start) -> np.ndarray:
    """Maximize out the free parameters at each grid value, walking outward.

    The walk up from the grid point nearest the center and the walk down from
    its neighbour are independent, and may run in two processes.
    """
    i0 = int(np.argmin(np.abs(grid - center)))
    up, down = _walks(objective, [grid[i0:], grid[:i0][::-1]], start)
    return np.concatenate([down[::-1], up])


def _walks(objective, legs, start) -> list[np.ndarray]:
    """Profile log-likelihoods along each leg of grid values, every leg from ``start``."""

    def walk(leg):
        lp = np.empty(leg.size)
        warm = start
        for j, g in enumerate(leg):
            opt = minimize(lambda r: objective(g, r), warm, SimplexConfig())
            lp[j] = -opt.f_min
            warm = opt.x_min
        return lp

    processes = _fork.processes(len(legs), 1) if min(leg.size for leg in legs) >= MIN_WALK else 1
    with closing(_fork.ordered(walk, legs, processes)) as results:
        return list(results)


def _deviance_interval(grid, lp, lhat, critical) -> tuple[float, float]:
    dev = 2.0 * (lhat - lp)
    i0 = int(np.argmin(dev))

    def crossing(indices, inner):
        prev = inner
        for j in indices:
            if dev[j] > critical:
                frac = (dev[j] - critical) / (dev[j] - dev[prev])
                return float(grid[j] + frac * (grid[prev] - grid[j]))
            prev = j
        raise ProfileBracketError("lower" if indices.step < 0 else "upper")

    lower = crossing(range(i0 - 1, -1, -1), i0)
    upper = crossing(range(i0 + 1, grid.size), i0)
    return (lower, upper)
