"""Newton profile walks.

The restricted score and information of every pin against central
differences of the profile objective; the shape terms of the return-level
location against mpmath; a walk whose points all fall back against a
simplex walk bit for bit; the warm start of the grid expansion; the
crossing rule at penalized points; and, on heavy-tailed samples, the
intervals against a simplex walk over the same grid.
"""

import math
from collections import Counter

import mpmath
import numpy as np
import pytest

import blockmax as bm
from blockmax import _fork, inference
from blockmax.inference import (
    NONREGULAR,
    PENALTY,
    ProfileBracketError,
    _deviance_interval,
    _pinned,
    _restricted,
    _restricted_derivatives,
    fit_gev,
    fit_gumbel,
    profile,
)
from blockmax.returns import level_location_shape
from blockmax.simplex import SimplexConfig, minimize
from blockmax.special import chi2_quantile

pytestmark = pytest.mark.usefixtures("numpy_kernels")


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.fixture(scope="module")
def sample():
    return bm.sample(bm.GevParams(79.0, 21.0, 0.1), 129, seed=1).values


# -- the restricted derivatives against central differences ------------------------


def _central(f, x, h):
    """Central differences of f (scalar or array valued) at x, coordinate by coordinate."""
    columns = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h[i]
        columns.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h[i]))
    return np.stack(columns, axis=-1)


# (model, which, p, g, r): every pin, and return levels whose shape lies in
# the series of a(xi) (|xi*log y_p| <= 0.01), on the Gumbel switch and beyond
PINS = [
    ("gev", "mu", None, 80.0, [20.0, 0.12]),
    ("gev", "sigma", None, 22.0, [78.0, 0.08]),
    ("gev", "xi", None, 0.15, [79.5, 21.5]),
    ("gev", "return_level", 0.1, 130.0, [21.0, 0.1]),
    ("gev", "return_level", 0.01, 190.0, [22.0, -0.05]),
    ("gev", "return_level", 0.01, 180.0, [21.0, 1e-3]),
    ("gev", "return_level", 0.01, 180.0, [21.0, -2e-3]),
    ("gev", "return_level", 0.01, 180.0, [21.0, 0.0]),
    ("gumbel", "mu", None, 80.0, [21.0]),
    ("gumbel", "sigma", None, 22.0, [79.0]),
    ("gumbel", "return_level", 0.01, 180.0, [21.0]),
]


@pytest.mark.parametrize("model, which, p, g, r", PINS)
def test_restricted_derivatives_match_central_differences(sample, model, which, p, g, r):
    r = np.array(r)
    k, location = _pinned(model, which, p)
    objective = _restricted(sample, model, k, location)
    derivatives = _restricted_derivatives(sample, model, k, p)
    value, valid, score, info, cross = derivatives(g, r)
    assert valid[0] and value[0] == objective(g, r)
    # steps that keep xi off the Gumbel switch, where the objective changes surface
    h = np.maximum(1e-5 * np.abs(r), 1e-7)
    if model == "gev" and which != "xi":
        h[-1] = 1e-5
    fd_score = _central(lambda x: objective(g, x), r, h)
    fd_info = _central(lambda x: derivatives(g, x)[2][0], r, h)
    hg = 1e-6 * max(abs(g), 1.0)
    fd_cross = (derivatives(g + hg, r)[2][0] - derivatives(g - hg, r)[2][0]) / (2.0 * hg)
    scale = np.sqrt(np.outer(np.diag(info[0]), np.diag(info[0])))
    np.testing.assert_allclose(score[0], fd_score, rtol=1e-5, atol=1e-6 * scale.max())
    np.testing.assert_allclose(info[0], fd_info, rtol=1e-6, atol=1e-7 * scale.max())
    np.testing.assert_allclose(cross[0], fd_cross, rtol=1e-6, atol=1e-7 * scale.max())


@pytest.mark.parametrize("xi", [0.0, 1e-9, -3e-4, 2e-3, -0.0021, 0.0022, 0.05, -0.3, 0.7])
@pytest.mark.parametrize("p", [0.1, 0.01])
def test_level_location_shape_matches_mpmath(xi, p):
    # a(xi) = -expm1(-xi*log y_p)/xi: the closed form and the series at both
    # sides of |xi*log y_p| = 0.01 (log y_p is -2.25 at p = 0.1, -4.6 at 0.01);
    # just outside, the closed form of a'' keeps about 12 digits
    log_y = mpmath.log(-mpmath.log(1 - mpmath.mpf(p)))
    with mpmath.workdps(40):
        a = lambda s: log_y if s == 0 else -mpmath.expm1(-s * log_y) / s
        expected = [float(mpmath.diff(a, mpmath.mpf(xi), n)) for n in range(3)]
    got = level_location_shape(p)(xi)
    np.testing.assert_allclose(got, expected, rtol=1e-11, atol=0.0)


# -- fallbacks, expansion and the crossing rule --------------------------------------


def _simplex_walk(values, model, which, p, fit, grid):
    """The profile log-likelihoods of a walk of simplex searches over ``grid``.

    Walks up from the grid point at the estimate and down from its neighbour,
    each point from its neighbour's optimum, the first ones from the estimate.
    """
    k, location = _pinned(model, which, p)
    objective = _restricted(values, model, k, location)
    start = np.delete(fit.theta, k)
    center = bm.returns.return_level(fit.params, p) if which == "return_level" else fit.theta[k]
    i0 = int(np.argmin(np.abs(grid - center)))
    lp = np.empty(grid.size)
    for leg in (range(i0, grid.size), range(i0 - 1, -1, -1)):
        warm = start
        for j in leg:
            opt = minimize(lambda r: objective(grid[j], r), warm, SimplexConfig())
            lp[j], warm = -opt.f_min, opt.x_min
    return lp


def test_points_that_fall_back_are_the_simplex_walk_bit_for_bit(sample, monkeypatch):
    fit = fit_gev(sample)
    grid = np.linspace(-0.2, 0.45, 27)
    monkeypatch.setattr(inference, "NONREGULAR_XI", math.inf)  # every point falls back
    curve = profile(sample, "gev", which="xi", grid=grid, fit=fit)
    assert curve.counts == Counter({NONREGULAR: curve.grid.size})
    assert _bits(curve.lp) == _bits(_simplex_walk(sample, "gev", "xi", None, fit, curve.grid))


def test_counts_and_expansions(sample):
    fit = fit_gev(sample)
    curve = profile(sample, "gev", which="xi", tau=1e-5, fit=fit)  # widens its grid once
    assert curve.expansions == 1 and curve.grid.size == 151
    assert curve.counts["newton"] == curve.grid.size
    assert curve.grid.size <= curve.counts["steps"] <= 4 * curve.grid.size
    plain = profile(sample, "gev", which="xi", fit=fit)
    assert plain.expansions == 0 and plain.counts["newton"] == plain.grid.size


def test_expansion_legs_continue_from_the_edge_optima(sample, monkeypatch):
    monkeypatch.setattr(_fork, "cpus", lambda: 1)
    calls = []
    walks = inference._walks

    def spy(walk, legs, counts):
        out = walks(walk, legs, counts)
        calls.append((legs, out))
        return out

    monkeypatch.setattr(inference, "_walks", spy)
    fit = fit_gev(sample)
    curve = profile(sample, "gev", which="xi", tau=1e-5, fit=fit)
    (first_legs, first_out), (legs, _) = calls
    start = np.delete(fit.theta, 2)
    for leg in first_legs:
        assert leg[1][0] == fit.params.xi and _bits(leg[1][1]) == _bits(start)
    (_, hi_edge), (_, lo_edge) = first_out
    widened = 0
    for (leg, anchor), edge in zip(legs, (lo_edge, hi_edge)):
        assert anchor is edge  # the optimum, and its slope, at the edge the leg extends
        if leg.size:
            widened += 1
            assert edge[2] is not None  # a Newton optimum carries its slope
            assert abs(leg[0] - edge[0]) == pytest.approx(curve.grid[1] - curve.grid[0], rel=1e-9)
    assert widened == 1


def test_no_crossing_is_taken_against_a_penalized_point():
    grid = np.arange(7.0)
    lp = np.array([-9.0, -2.0, -1.0, 0.0, -0.5, -1.5, -3.0])
    critical = chi2_quantile(0.95, 1)
    _, upper = _deviance_interval(grid, lp, 0.0, critical)
    assert 5.0 < upper < 6.0
    lp[6] = -PENALTY - 3.0  # the crossing point's optimum is on the penalty surface
    with pytest.raises(ProfileBracketError) as caught:
        _deviance_interval(grid, lp, 0.0, critical)
    assert caught.value.side == "upper"


# -- heavy tails: the intervals of a simplex walk -----------------------------------


@pytest.mark.parametrize("xi, n, seed", [(0.3, 40, 0), (0.4, 30, 1), (0.4, 30, 7)])
@pytest.mark.parametrize("which, p", [("xi", None), ("return_level", 0.01)])
def test_heavy_tailed_intervals_match_a_simplex_walk(xi, n, seed, which, p):
    values = bm.sample(bm.GevParams(0.0, 1.0, xi), n, seed=seed).values
    fit = fit_gev(values)
    curve = profile(values, "gev", which=which, p=p, fit=fit)
    lp = _simplex_walk(values, "gev", which, p, fit, curve.grid)
    critical = chi2_quantile(0.95, 1)
    near = 2.0 * (-fit.nllh - curve.lp) <= 2.0 * critical
    assert np.all(-curve.lp[near] <= -lp[near] + 1e-9 * np.abs(lp[near]))
    lower, upper = _deviance_interval(curve.grid, lp, -fit.nllh, critical)
    width = upper - lower
    assert abs(curve.ci[0] - lower) <= 1e-9 * width and abs(curve.ci[1] - upper) <= 1e-9 * width


def test_gumbel_profiles_take_newton_steps(sample):
    fit = fit_gumbel(sample)
    for which, p in (("mu", None), ("sigma", None), ("return_level", 0.01)):
        curve = profile(sample, "gumbel", which=which, p=p, fit=fit)
        assert curve.counts["newton"] == curve.grid.size
