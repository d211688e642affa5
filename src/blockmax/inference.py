"""Model fitting and uncertainty quantification.

Maximum likelihood fits for the GEV and Gumbel models (Nelder-Mead on the
penalized negative log-likelihood), standard errors from the inverse observed
information, normal-approximation and profile-likelihood confidence
intervals, the nested likelihood-ratio test, AIC, and the delta method.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import as_values
from .gev import GevParams
from .likelihood import (
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
from .returns import level_location, level_location_shape, return_level, return_level_gradient
from .simplex import OptResult, SimplexConfig, minimize
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
# Values per derivative-pass call.  The pass holds four arrays of its size,
# so a wide batch is cut into blocks of rows, which keeps the peak memory of
# a Newton refit at that of the simplex search.
BLOCK_ELEMENTS = 16_384
# Profile grids: a grid point takes at most this many Newton solves from a
# start that is not its inner neighbour's optimum (see _lockstep).  Such a
# solve steps on the information with its eigenvalues made positive where it
# is indefinite (_modified_direction, eigenvalues at least EIGEN_FLOOR times
# the largest), and stops after FREE_STEPS steps or FREE_HALVINGS halvings
# of one step, to be tried again from a nearer start: so every wave ends
# within a few steps.
NEWTON_TRIES = 8
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


def _search(values, model) -> OptResult:
    """The simplex search of ``fit_<model>``: from the moment start (with
    shape 0.1 for the GEV), on the scalar kernel."""
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
        return minimize(objective, x0, SimplexConfig())


def _run_fit(values, model) -> OptResult:
    opt = _search(values, model)
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
    opt = _run_fit(values, "gev")
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
    opt = _run_fit(values, "gumbel")
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
    ``rows(X)`` refits every row of a sample matrix, each with the simplex
    search of ``fit_<model>``, and returns ``(theta, ok)``: row r of
    ``theta`` is bit for bit what the call on ``X[r]`` returns, and
    ``ok[r]`` is False exactly where that call raises ConvergenceError or
    DegenerateSampleError (a constant row, which is not searched and whose
    theta is NaN, or a row whose fitted scale collapsed).  A ``failures``
    Counter, when given, gains the ``cause`` of every failed row.

    ``Refit(model, start)``, with ``start`` the full-sample estimate, refits
    each row by damped Newton steps from ``start`` on the closed-form score
    and information instead (see NEWTON_TOL).  A row whose information is
    not positive definite, that leaves the support, that does not converge
    in NEWTON_STEPS steps or that enters the nonregular shapes falls back to
    the simplex search of ``fit_<model>``, and gets exactly the bits of
    ``Refit(model)``.  ``ok`` and the failure causes follow the same rules,
    and the call is the one-row case of ``rows``.  ``counts`` tallies, in
    this process, the rows refitted by Newton (``newton``), their steps
    (``steps``) and the fallbacks by cause.
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
            fit = fit_gev if self.model == "gev" else fit_gumbel
            return fit(values, compute_se=False).theta
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
                theta[ok], searched = self.rows(X[ok], failures)
                ok[ok] = searched
            return theta, ok
        if self.start is None:
            x_min, f_min, converged = _search_rows(X, self.model)
        else:
            x_min, f_min, converged = self._newton(X)
        penalized = converged & (f_min >= PENALTY)
        spread = X.max(axis=1) - X.min(axis=1)
        collapsed = converged & ~penalized & _collapsed(x_min[:, 1], spread)
        if failures is not None:
            for cause, mask in ((NOT_CONVERGED, ~converged), (PENALIZED_OPTIMUM, penalized),
                                (DEGENERATE_SAMPLE, collapsed)):
                if mask.any():
                    failures[cause] += int(np.count_nonzero(mask))
        return x_min, converged & ~penalized & ~collapsed

    def _newton(self, X):
        """``(x_min, f_min, converged)``: Newton from ``start``, the simplex where it falls back."""
        gev = self.model == "gev"
        kernel = gev_derivatives_rows if gev else gumbel_derivatives_rows
        nllh_rows = gev_nllh_rows if gev else gumbel_nllh_rows
        theta, f_min, cause, steps = _newton_rows(
            lambda lanes, points: _in_blocks(kernel, _lane_rows(X, lanes), points),
            lambda lanes, points: nllh_rows(_lane_rows(X, lanes), *points.T),
            np.tile(self.start, (X.shape[0], 1)),
            2 if gev else None,
        )
        fallback = cause != ""
        converged = np.ones(X.shape[0], dtype=bool)
        if fallback.any():
            theta[fallback], f_min[fallback], converged[fallback] = _search_rows(
                X[fallback], self.model)
        self.counts.update(cause[fallback].tolist())
        self.counts["newton"] += int(np.count_nonzero(~fallback))
        self.counts["steps"] += steps
        return theta, f_min, converged


def _search_rows(X, model):
    """``(x_min, f_min, converged)`` of :func:`_search` on each row of X."""
    x_min = np.empty((X.shape[0], len(_PARAMETERS[model])))
    f_min = np.empty(X.shape[0])
    converged = np.empty(X.shape[0], dtype=bool)
    for r, row in enumerate(X):
        opt = _search(row, model)
        x_min[r], f_min[r], converged[r] = opt.x_min, opt.f_min, opt.converged
    return x_min, f_min, converged


def _lane_rows(X, lanes):
    """Rows ``lanes`` (an ascending subset) of X; all of them need no copy."""
    return X if lanes.size == X.shape[0] else X[lanes]


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
    parameters, in closed form, reading the lower triangle of H."""
    if g.shape[1] == 1:
        m = np.abs(H[:, 0, 0])
        return -g / m[:, None], g[:, 0] * g[:, 0] / m
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


def _in_blocks(derivatives, rows, point):
    """``derivatives`` of the rows at their points, at most BLOCK_ELEMENTS values per call."""
    size = max(1, BLOCK_ELEMENTS // rows.shape[1])
    if rows.shape[0] <= size:
        return derivatives(rows, *point.T)
    parts = [derivatives(rows[a:a + size], *point[a:a + size].T)
             for a in range(0, rows.shape[0], size)]
    return [np.concatenate(part) for part in zip(*parts)]


def _newton_rows(derivatives, nllh_rows, theta, xi_column=None, free=None):
    """Damped Newton from every row of ``theta`` (lanes, d), the lanes in lockstep.

    ``derivatives(lanes, points)`` returns ``(value, valid, score, info)`` and
    ``nllh_rows(lanes, points)`` returns ``(value, valid)`` of the objective
    of the lanes at the indices ``lanes`` (ascending) at ``points``.  A lane
    whose column ``xi_column`` reaches NONREGULAR_XI falls back.  The lanes
    of the boolean mask ``free`` (one or two parameters) step on
    :func:`_modified_direction` where their information is indefinite, and
    give up (with the cause STEP_CAP or that of the line search) after
    FREE_STEPS steps or FREE_HALVINGS halvings of one step; they converge
    as the others do, with a positive definite information.  Returns
    ``(theta, f_min, cause, steps)``: per lane the optimum and its value,
    ``""`` or the cause of a fallback (theta and f_min are then
    meaningless), and the number of derivative passes over all lanes.  Each
    lane's arithmetic is elementwise in the lane, so its result does not
    depend on the other lanes.
    """
    theta = theta.copy()
    lanes = theta.shape[0]
    f_min = np.full(lanes, np.nan)
    cause = np.full(lanes, "", dtype=object)
    active = np.arange(lanes)
    steps = 0
    for k in range(NEWTON_STEPS + 1):
        if not active.size:
            break
        point = theta[active]
        value, valid, score, info = derivatives(active, point)
        steps += active.size
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
        elif free is not None and k == FREE_STEPS:
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
            if free is not None and halving == FREE_HALVINGS + 1:
                cut = free[active[search]]
                why[search[cut]] = np.where(last_ok[cut], LINE_SEARCH, SUPPORT)
                going[search[cut]] = False
                search, last_ok = search[~cut], last_ok[~cut]
            if not search.size:
                break
            trial = point[search] + alpha * step[search]
            f_trial, ok_trial = nllh_rows(active[search], trial)
            accept = ok_trial & (f_trial <= value[search] - ARMIJO * alpha * decrement[search])
            theta[active[search[accept]]] = trial[accept]
            search, last_ok = search[~accept], ok_trial[~accept]
            alpha *= 0.5
        if search.size:
            why[search] = np.where(last_ok, LINE_SEARCH, SUPPORT)
            going[search] = False

        cause[active] = why
        active = active[going]
    return theta, f_min, cause, steps


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
    """Profile log-likelihood over a grid with the deviance-based interval.

    ``counts`` tallies the grid points solved by Newton (``newton``), the
    derivative passes over all of them (``steps``), the lockstep waves that
    solved them (``waves``) and the points that fell back to the simplex
    search, by cause; ``expansions`` is how often the default grid was
    widened.
    """

    which: str
    grid: np.ndarray
    lp: np.ndarray
    ci: tuple[float, float]
    tau: float
    counts: Counter = field(default_factory=Counter)
    expansions: int = 0


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
    Where no finite location puts the level at g the point is outside the
    support, and the objective is the penalty ``PENALTY + |theta[-1]|``.
    """
    nllh = gev_nllh_value if model == "gev" else gumbel_nllh_value

    def objective(g, r):
        theta = r.tolist()
        theta.insert(k, g)
        if location is not None:
            theta[0] = location(*theta)
            if not math.isfinite(theta[0]):
                return PENALTY + abs(theta[-1])
        return nllh(values, *theta)[0]

    return objective


def _lane_matrix(values):
    """``lanes -> X``: a (lanes, n) view that repeats ``values`` in every row, no copy."""
    view = np.broadcast_to(values, (0, values.size))

    def rows(lanes):
        nonlocal view
        if view.shape[0] < lanes:
            view = np.broadcast_to(values, (2 * lanes, values.size))
        return view[:lanes]

    return rows


def _lane_theta(k, location, G, R):
    """``(theta, outside)`` of the lanes ``(G[i], R[i])``: the full parameter
    vectors, and for a return level (``location`` given) the lanes without a
    finite location, whose location slot then holds the level instead."""
    theta = np.empty((G.size, R.shape[1] + 1))
    theta[:, k] = G
    theta[:, :k] = R[:, :k]
    theta[:, k + 1:] = R[:, k:]
    if location is None:
        return theta, None
    # the scalar location per lane, so every lane has the objective's bits
    mu = np.fromiter(map(location, *theta.T.tolist()), float, G.size)
    outside = ~np.isfinite(mu)
    theta[:, 0] = np.where(outside, G, mu)
    return theta, outside


def _outside(value, valid, theta, outside):
    """Give the lanes without a finite location :func:`_restricted`'s penalty."""
    if outside is not None and outside.any():
        value[outside] = PENALTY + np.abs(theta[outside, -1])
        valid[outside] = False


def _restricted_rows(values, model, k, location=None):
    """Lane-wise :func:`_restricted`: ``(G, R) -> (value, valid)`` of the lanes
    ``(G[i], R[i])``, each value bit for bit the objective's."""
    nllh = gev_nllh_rows if model == "gev" else gumbel_nllh_rows
    rows = _lane_matrix(values)

    def objective(G, R):
        theta, outside = _lane_theta(k, location, G, R)
        value, valid = _in_blocks(nllh, rows(G.size), theta)
        _outside(value, valid, theta, outside)
        return value, valid

    return objective


def _restricted_derivatives(values, model, k, p=None):
    """Derivatives of :func:`_restricted`'s objective, lane-wise: ``(G, R) -> ...``.

    Returns ``(value, valid, score, info, cross)`` of the lanes
    ``(G[i], R[i])``: the objective's value (bit for bit) and validity, its
    gradient and Hessian in the free parameters r, and the column d2/dr dg.
    With k pinned they are the free rows and columns of the full ones.  For
    a return level (``p`` given) the location is ``g + sigma*a(xi)``, and
    they come by the chain rule on lane columns: J'g and J'HJ + g_mu * d2mu,
    with J the Jacobian of (mu, sigma[, xi]) in (g, sigma[, xi]).  A lane
    without a finite location is not valid.
    """
    gev = model == "gev"
    kernel = gev_derivatives_rows if gev else gumbel_derivatives_rows
    free = [i for i in range(len(_PARAMETERS[model])) if i != k]
    location = None if p is None else level_location(p)
    shape = None if p is None else level_location_shape(p)
    rows = _lane_matrix(values)

    def derivatives(G, R):
        theta, outside = _lane_theta(k, location, G, R)
        value, valid, score, info = _in_blocks(kernel, rows(G.size), theta)
        if p is None:
            return value, valid, score[:, free], info[:, free][:, :, free], info[:, free, k]
        _outside(value, valid, theta, outside)
        # mu moves with the free parameters by v = (a, sigma*a') (GEV) or (a,)
        # (Gumbel): with h the mu column of H, the free block of J'HJ is
        # H_rr + v h' + h v' + H_mumu v v', and its g column h + H_mumu v
        a, a1, a2 = shape(R[:, 1] if gev else np.zeros(G.size))
        v = np.stack([a, R[:, 0] * a1], axis=1) if gev else a[:, None]
        g_mu, h_mumu, h = score[:, 0], info[:, 0, 0], info[:, 1:, 0]
        spread = v[:, :, None] * h[:, None, :]
        hessian = (info[:, 1:, 1:] + (spread + spread.transpose(0, 2, 1))
                   + h_mumu[:, None, None] * (v[:, :, None] * v[:, None, :]))
        if gev:  # the second derivatives of mu: d2/dsigma dxi = a', d2/dxi2 = sigma*a''
            hessian[:, 0, 1] += g_mu * a1
            hessian[:, 1, 0] += g_mu * a1
            hessian[:, 1, 1] += g_mu * R[:, 0] * a2
        gradient = score[:, 1:] + g_mu[:, None] * v
        return value, valid, gradient, hessian, h + h_mumu[:, None] * v

    return derivatives


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
    re-maximized by damped Newton steps on the restricted score and
    information (Venzon & Moolgavkar 1988), every grid point a lane of one
    lockstep solve: each starts from the estimate plus the tangent step
    along the profile path, stepping through indefinite information on the
    way, and a point that fails is restarted from the nearest solved point
    between it and the estimate, or falls back to the simplex search from
    its inner neighbour's optimum (see :func:`_lockstep`).  The interval is
    the set where the deviance 2*(lhat - lp) stays below the 1-tau
    chi-square(1) quantile, with endpoints found by linear interpolation
    between grid points.  A default
    grid spans the estimate +- 4 standard errors and is widened
    automatically, each new leg anchored at the optimum at the edge it
    extends, if it fails to bracket a crossing; a grid that still fails, or
    whose crossing would be taken against a point left on the penalty
    surface, raises :class:`ProfileBracketError`.

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
    problem = _Problem(values, model, k, location, p)
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
    counts = Counter()
    # a leg up from the estimate's grid point and one down from its neighbour
    i0 = int(np.argmin(np.abs(grid - center)))
    anchor = problem.anchor(grid[i0], start, counts)
    legs = [(grid[i0:], anchor), (grid[:i0][::-1], anchor)]
    (up, hi_edge), (down, lo_edge) = _lockstep(problem, legs, counts)
    lp = np.concatenate([down[::-1], up])

    expansions = 0
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
        legs = [(new_lo[::-1], lo_edge), (new_hi, hi_edge)]
        (lp_lo, lo_edge), (lp_hi, hi_edge) = _lockstep(problem, legs, counts)
        lp = np.concatenate([lp_lo[::-1], lp, lp_hi])
        grid = np.concatenate([new_lo, grid, new_hi])
        expansions += 1

    ci = _deviance_interval(grid, lp, lhat, critical)
    return ProfileCurve(which=which, grid=grid, lp=lp, ci=ci, tau=tau, counts=counts,
                        expansions=expansions)


class _Problem:
    """The restricted problem of one profile: coordinate k pinned, lane-wise.

    ``objective`` is :func:`_restricted`'s scalar objective, which the
    simplex fallback searches; ``nllh`` and ``derivatives`` are its
    lane-wise value and derivatives, on which the Newton lanes step.
    """

    def __init__(self, values, model, k, location=None, p=None):
        self.objective = _restricted(values, model, k, location)
        self.nllh = _restricted_rows(values, model, k, location)
        self.derivatives = _restricted_derivatives(values, model, k, None if location is None else p)
        # the slot of xi among the free parameters, or whether xi is the pinned one
        gev = model == "gev"
        self.xi_column = 1 if gev and k != 2 else None
        self.xi_pinned = gev and k == 2

    def anchor(self, g, r, counts):
        """``(g, r, slope)`` at the estimate: the slope dr/dg of the optimum path
        there, None where the restricted information is not positive definite."""
        value, valid, _, info, cross = self.derivatives(np.array([g]), r[None, :])
        counts["steps"] += 1
        slope = _slope(info, cross)[0]
        return g, r, slope if valid[0] and np.isfinite(slope).all() else None


def _slope(info, cross):
    """Per lane the slope -H_rr^-1 h_rg of the optimum path, NaN where H_rr is indefinite."""
    slope, _, definite = _newton_direction(cross, info)
    slope[~definite] = np.nan
    return slope


def _newton_lanes(problem, g, start, free=None):
    """``(r, f_min, cause, steps, slope)`` of :func:`_newton_rows` on lanes pinned
    at ``g`` from ``start`` (``free`` as there), with each lane's slope from
    its last derivative pass."""
    d = start.shape[1]
    info_last, cross_last = np.empty((g.size, d, d)), np.empty((g.size, d))

    def derivatives(lanes, points):
        value, valid, score, info, cross = problem.derivatives(g[lanes], points)
        info_last[lanes], cross_last[lanes] = info, cross
        return value, valid, score, info

    theta, f_min, cause, steps = _newton_rows(
        derivatives, lambda lanes, points: problem.nllh(g[lanes], points), start, problem.xi_column,
        free)
    return theta, f_min, cause, steps, _slope(info_last, cross_last)


def _lockstep(problem, legs, counts) -> list:
    """``[(lp, edge), ...]`` of the legs, every grid point a lane of lockstep Newton solves.

    A leg ``(values, anchor)`` is a run of grid values outward from an
    anchor ``(g, r, slope)``: a grid value already solved (or the
    estimate), the optimum r of the free parameters there, and the slope
    dr/dg of the optimum path (None where unknown).  A point's inner
    neighbour is the point before it on its leg, or the anchor.  The points
    are solved in waves of :func:`_newton_rows`: in each, a point not yet
    solved starts from the nearest solved point between it and the anchor,
    at that point's optimum plus ``slope * (g - g_there)``.  A solve from a
    start that is not the point's inner neighbour is a ``free`` lane of
    :func:`_newton_rows`: it steps through indefinite information and gives
    up after FREE_STEPS steps, so a far start costs every wave a bounded
    number of passes.  A point whose solve fails is tried again once a point
    nearer to it is solved, at most NEWTON_TRIES times from starts that are
    not its inner neighbour; one that fails from its inner neighbour's
    optimum (its information is indefinite, it leaves the support, its line
    search fails, it hits the step cap or it is nonregular, pinned or free
    xi <= NONREGULAR_XI) falls back to the simplex search from there, as a
    walk from point to point would run it.  Each wave solves at least the innermost open point of
    every leg, so a profile takes at most as many waves as its longest leg
    has points, and at worst a point costs the walk's solve and fallback
    plus NEWTON_TRIES failed solves.

    ``edge`` is the anchor at the leg's last point, for a leg that extends
    it; ``counts`` gains the Newton points, derivative passes, waves and
    fallbacks by cause.
    """
    sizes = [leg[0].size for leg in legs]
    stops = np.cumsum(sizes)
    begins = stops - sizes
    total = int(stops[-1])
    d = legs[0][1][1].size
    # slots 0..total-1 are the grid points, total + l the anchor of leg l
    g = np.concatenate([leg[0] for leg in legs] + [[anchor[0] for _, anchor in legs]])
    r = np.empty((g.size, d))
    slope = np.full((g.size, d), np.nan)
    solved = np.zeros(g.size, dtype=bool)
    inner = np.arange(total) - 1
    for l, (_, (_, r0, slope0)) in enumerate(legs):
        r[total + l] = r0
        if slope0 is not None:
            slope[total + l] = slope0
        solved[total + l] = True
        if sizes[l]:
            inner[begins[l]] = total + l
    f_min = np.full(total, np.nan)
    tries = np.zeros(total, dtype=int)
    tried_from = np.full(total, -1)
    nonregular = problem.xi_pinned & (g[:total] <= NONREGULAR_XI)

    while not solved.all():
        # per point, the nearest solved slot on its way to the anchor
        source = np.empty(total, dtype=int)
        for l in range(len(legs)):
            span = np.arange(begins[l], stops[l])
            last = np.maximum.accumulate(np.where(solved[span], span, -1))
            source[span] = np.where(last >= 0, last, total + l)
        pending = ~solved[:total]
        adjacent = pending & (source == inner)
        retry = pending & ~nonregular & (tries < NEWTON_TRIES) & (source != tried_from)
        lanes = np.flatnonzero((adjacent | retry) & ~nonregular)
        fallback = [(j, NONREGULAR) for j in np.flatnonzero(adjacent & nonregular)]
        counts["waves"] += 1

        if lanes.size:
            from_ = source[lanes]
            start = r[from_].copy()
            known = ~np.isnan(slope[from_, 0])
            start[known] += slope[from_[known]] * (g[lanes[known]] - g[from_[known]])[:, None]
            theta, f_lanes, why, steps, tangent = _newton_lanes(
                problem, g[lanes], start, ~adjacent[lanes])
            counts["steps"] += steps
            done = why == ""
            solved[lanes[done]] = True
            r[lanes[done]], f_min[lanes[done]] = theta[done], f_lanes[done]
            slope[lanes[done]] = tangent[done]
            counts["newton"] += int(np.count_nonzero(done))
            from_inner = adjacent[lanes]
            again = ~done & ~from_inner
            tries[lanes[again]] += 1
            tried_from[lanes[again]] = from_[again]
            fallback += zip(lanes[~done & from_inner], why[~done & from_inner])

        for j, cause in fallback:
            g_j = g[j]
            opt = minimize(lambda x: problem.objective(g_j, x), r[source[j]], SimplexConfig())
            r[j], f_min[j], solved[j] = opt.x_min, opt.f_min, True
            counts[cause] += 1

    out = []
    for l, (_, anchor) in enumerate(legs):
        last = stops[l] - 1
        edge = anchor
        if sizes[l]:
            edge = (g[last], r[last].copy(), None if np.isnan(slope[last, 0]) else slope[last].copy())
        out.append((-f_min[begins[l]:stops[l]], edge))
    return out


def _deviance_interval(grid, lp, lhat, critical) -> tuple[float, float]:
    dev = 2.0 * (lhat - lp)
    i0 = int(np.argmin(dev))

    def crossing(indices, inner):
        side = "lower" if indices.step < 0 else "upper"
        prev = inner
        for j in indices:
            if dev[j] > critical:
                if -lp[j] >= PENALTY:  # the optimum there stayed on the penalty surface
                    raise ProfileBracketError(side)
                frac = (dev[j] - critical) / (dev[j] - dev[prev])
                return float(grid[j] + frac * (grid[prev] - grid[j]))
            prev = j
        raise ProfileBracketError(side)

    lower = crossing(range(i0 - 1, -1, -1), i0)
    upper = crossing(range(i0 + 1, grid.size), i0)
    return (lower, upper)
