"""Profile likelihood: curves over a grid and their deviance intervals.

Every grid point re-maximizes the free parameters with the profiled
quantity pinned, by the lockstep Newton solves of
:func:`blockmax.inference._newton_rows` on the restricted score and
information, with the simplex search as the per-point fallback.
:func:`profile` and :class:`ProfileCurve` are also reachable as
``blockmax.inference.profile`` and ``blockmax.inference.ProfileCurve``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import inference
from .data import as_values
from .inference import (
    _PARAMETERS,
    UNBOUNDED_XI,
    FitResult,
    ProfileBracketError,
    _newton_direction,
    _newton_rows,
    _standardize,
    delta_method,
    fit_gev,
    fit_gumbel,
)
from .likelihood import (
    PENALTY,
    gev_derivatives_rows,
    gev_nllh_rows,
    gev_nllh_value,
    gumbel_derivatives_rows,
    gumbel_nllh_rows,
    gumbel_nllh_value,
)
from .returns import level_location, level_location_shape, return_level, return_level_gradient
from .special import chi2_quantile

__all__ = ["ProfileCurve", "profile"]

# A grid point takes at most this many Newton solves from a start that is not
# its inner neighbour's optimum (see _lockstep).
NEWTON_TRIES = 8


@dataclass(frozen=True)
class ProfileCurve:
    """Profile log-likelihood over a grid with the deviance-based interval.

    ``counts`` tallies the grid points solved by Newton (``newton``), the
    Newton iterations over all of them (``steps``), the lockstep waves that
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
    """k: the coordinate of theta a profile of ``which`` pins.

    A return level, named by its exceedance probability ``p``, pins the
    location slot, k = 0.
    """
    if which == "return_level":
        if p is None:
            raise ValueError("profiling a return level requires the exceedance probability p")
        return 0
    if which not in _PARAMETERS[model]:
        raise ValueError(f"cannot profile {which!r} for the {model} model")
    return _PARAMETERS[model].index(which)


def _restricted(values, model, k, p=None):
    """Profile objective ``(g, r)``: the nllh at theta with coordinate k pinned to g.

    The free parameters ``r`` fill the other slots in order; with ``p``, g
    is the return level of that exceedance probability and slot 0 gets the
    location :func:`blockmax.returns.level_location` puts it at.  Where no
    finite location puts the level at g the point is outside the support,
    and the objective is the penalty ``PENALTY + |theta[-1]|``.
    """
    nllh = gev_nllh_value if model == "gev" else gumbel_nllh_value
    location = None if p is None else level_location(p)

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


def _restricted_rows(values, model, k, p=None):
    """Lane-wise :func:`_restricted`: ``(G, R) -> (value, valid)`` of the lanes
    ``(G[i], R[i])``, each value bit for bit the objective's."""
    nllh = gev_nllh_rows if model == "gev" else gumbel_nllh_rows
    location = None if p is None else level_location(p)
    rows = _lane_matrix(values)

    def objective(G, R):
        theta, outside = _lane_theta(k, location, G, R)
        value, valid = nllh(rows(G.size), *theta.T)
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
        value, valid, score, info = kernel(rows(G.size), *theta.T)
        if p is None:
            return value, valid, score[:, free], info[:, free][:, :, free], info[:, free, k]
        _outside(value, valid, theta, outside)
        # mu moves with the free parameters by v = (a, sigma*a') (GEV) or (a,)
        # (Gumbel): with h the mu column of H, the free block of J'HJ is
        # H_rr + v h' + h v' + H_mumu v v', and its g column h + H_mumu v
        # a valid lane far out may overflow: its Hessian is then not finite, so not definite
        with np.errstate(all="ignore"):
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


def _profile_center(fit: FitResult, which: str, k: int, p, shift: float, scale: float):
    """(center value, its standard error, free-parameter start vector), the
    start on the sample standardized by ``(x - shift)/scale``."""
    theta = fit.theta.copy()
    theta[0] = (theta[0] - shift) / scale
    theta[1] /= scale
    start = np.delete(theta, k)
    if which == "return_level":
        center = return_level(fit.params, p)
        se = None
        if fit.cov is not None:
            grad = return_level_gradient(fit.params, p)[: fit.n_params]
            se = math.sqrt(max(delta_method(fit.cov, grad), 0.0))
        return center, se, start
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

    A profile of xi stays above -1, where the GEV likelihood has no maximum
    (Smith 1985) and a search stops wherever it gives up: the default grid
    and its expansions stop there, so a lower side that does not cross
    above -1 (or an estimate at or below it) raises
    ``ProfileBracketError("lower")``, and an explicit grid value at or below
    -1 raises ValueError.  Above -1 the likelihood with xi pinned is bounded
    (Smith 1985), so a point at -1 < xi <= -0.5 is a Newton point like any
    other.  A ``fit`` of another model, or a grid value that is not finite,
    raises ValueError.

    Profiling ``which="return_level"`` re-expresses the model in terms of
    (x_p, sigma[, xi]) by substituting the matching location parameter.

    The grid points are solved on the sample standardized as the fits
    standardize it, z = (x - shift)/scale (see
    :func:`blockmax.inference._standardize`): a location or a level g is
    pinned at (g - shift)/scale, a scale at g/scale, and the log-likelihoods
    map back by -n*log(scale).  So the curve and the interval follow the
    units and the offset of the data.
    """
    values = as_values(sample)
    if model not in _PARAMETERS:
        raise ValueError(f"unknown model {model!r}")
    k = _pinned(model, which, p)
    if fit is None:
        fit = fit_gev(values) if model == "gev" else fit_gumbel(values)
    elif fit.model != model:
        raise ValueError(f"cannot profile the {model} model from a {fit.model} fit")
    lhat = -fit.nllh
    Z, shift, scale = _standardize(values[None, :])
    shift, scale = float(shift[0]), float(scale[0])
    problem = _Problem(Z[0], model, k, p if which == "return_level" else None)
    center, center_se, start = _profile_center(fit, which, k, p, shift, scale)
    offset = shift if which in ("mu", "return_level") else 0.0
    unit = 1.0 if which == "xi" else scale
    log_scale = values.size * math.log(scale)
    floor = UNBOUNDED_XI if which == "xi" else -math.inf

    def solve(legs):
        """:func:`_lockstep` on legs of grid values, with their lp mapped back."""
        out = _lockstep(problem, [((g - offset) / unit, anchor) for g, anchor in legs], counts)
        # a point left on the penalty surface keeps its penalty value
        return [(np.where(-lp >= PENALTY, lp, lp - log_scale), edge) for lp, edge in out]

    if center <= floor:
        raise ProfileBracketError("lower")
    if grid is not None:
        grid = np.asarray(grid, dtype=float)
        if not np.all(np.isfinite(grid)):
            raise ValueError("profile grid values must be finite")
        if np.any(grid <= floor):
            raise ValueError("a profile of xi needs grid values above -1; "
                             "at or below it the likelihood has no maximum")
        # The estimate itself is always a grid point, so the deviance minimum
        # is observed and a one-sided grid fails with the offending side named.
        grid = np.sort(np.unique(np.append(grid, center)))
        expandable = False
    else:
        if center_se is None:
            raise ValueError("fit has no standard errors; pass an explicit grid")
        half = 4.0 * center_se
        grid = np.linspace(center - half, center + half, n_grid)
        grid = np.sort(np.unique(np.append(grid[grid > floor], center)))
        expandable = True

    critical = chi2_quantile(1.0 - tau, 1)
    counts = Counter()
    # a leg up from the estimate's grid point and one down from its neighbour
    i0 = int(np.argmin(np.abs(grid - center)))
    anchor = problem.anchor((grid[i0] - offset) / unit, start, counts)
    (up, hi_edge), (down, lo_edge) = solve([(grid[i0:], anchor), (grid[:i0][::-1], anchor)])
    lp = np.concatenate([down[::-1], up])

    expansions = 0
    for _ in range(3):
        if not expandable:
            break
        dev = 2.0 * (lhat - lp)
        step = grid[1] - grid[0] if grid.size > 1 else max(abs(center), 1.0) * 0.1
        n_ext = max(n_grid // 2, 2)
        extend_lo = dev[0] <= critical and grid[0] - step > floor
        extend_hi = dev[-1] <= critical
        if not (extend_lo or extend_hi):
            break
        new_lo = grid[0] - step * np.arange(n_ext, 0, -1) if extend_lo else grid[:0]
        new_lo = new_lo[new_lo > floor]
        new_hi = grid[-1] + step * np.arange(1, n_ext + 1) if extend_hi else grid[:0]
        (lp_lo, lo_edge), (lp_hi, hi_edge) = solve([(new_lo[::-1], lo_edge), (new_hi, hi_edge)])
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

    def __init__(self, values, model, k, p=None):
        self.objective = _restricted(values, model, k, p)
        self.nllh = _restricted_rows(values, model, k, p)
        self.derivatives = _restricted_derivatives(values, model, k, p)
        self.width = values.size
        # the slot of xi among the free parameters, if xi is free
        self.xi_column = 1 if model == "gev" and k != 2 else None

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
    at ``g`` from ``start`` (``free`` as there): the Newton iterations over
    all lanes, and each lane's slope from its derivative pass at its last
    iterate.  A trial pass writes the slope of its lanes too; where the trial
    is rejected, the lane's next pass writes it again, or the lane fails."""
    d = start.shape[1]
    info_last, cross_last = np.empty((g.size, d, d)), np.empty((g.size, d))

    def derivatives(lanes, points):
        value, valid, score, info, cross = problem.derivatives(g[lanes], points)
        info_last[lanes], cross_last[lanes] = info, cross
        return value, valid, score, info

    theta, f_min, cause, steps = _newton_rows(
        derivatives, lambda lanes, points: problem.nllh(g[lanes], points), problem.width,
        start, problem.xi_column, free)
    return theta, f_min, cause, int(steps.sum()), _slope(info_last, cross_last)


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
    search fails, it hits the step cap or its free xi reaches the nonregular
    shapes, see :func:`blockmax.inference._newton_rows`) falls back to the
    simplex search from there, as a walk from point to point would run it.
    Each wave solves at least the innermost open point of every leg, so a
    profile takes at most as many waves as its longest leg has points, and
    at worst a point costs the walk's solve and fallback plus NEWTON_TRIES
    failed solves.

    ``edge`` is the anchor at the leg's last point, for a leg that extends
    it; ``counts`` gains the Newton points, Newton iterations, waves and
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

    while not solved.all():
        # per point, the nearest solved slot on its way to the anchor
        source = np.empty(total, dtype=int)
        for l in range(len(legs)):
            span = np.arange(begins[l], stops[l])
            last = np.maximum.accumulate(np.where(solved[span], span, -1))
            source[span] = np.where(last >= 0, last, total + l)
        pending = ~solved[:total]
        # the innermost open point of every leg is adjacent, so lanes is never empty
        adjacent = pending & (source == inner)
        retry = pending & (tries < NEWTON_TRIES) & (source != tried_from)
        lanes = np.flatnonzero(adjacent | retry)
        counts["waves"] += 1

        from_ = source[lanes]
        start = r[from_].copy()
        known = ~np.isnan(slope[from_, 0])
        start[known] += slope[from_[known]] * (g[lanes[known]] - g[from_[known]])[:, None]
        theta, f_lanes, why, steps, tangent = _newton_lanes(problem, g[lanes], start, ~adjacent[lanes])
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

        for j, cause in zip(lanes[~done & from_inner], why[~done & from_inner]):
            g_j = g[j]
            # looked up at call time, as the fits' searches are, so that a wrapper
            # put on inference.minimize (perfbench's tracer) sees these too
            opt = inference.minimize(lambda x: problem.objective(g_j, x), r[source[j]])
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
