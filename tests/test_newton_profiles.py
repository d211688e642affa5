"""Newton profiles: every grid point a lane of one lockstep solve.

The restricted score and information of every pin against central
differences of the profile objective; the shape terms of the return-level
location against mpmath; a location that overflows as a point outside the
support; a profile whose points all fall back against a simplex walk bit for
bit; the anchors of the grid expansion; the crossing rule at penalized
points; lockstep profiles against a sequential walk of one-lane Newton
solves, on chosen cases and as a Hypothesis property; the modified Newton
steps of far starts and their step cap; pinned nonregular shapes as Newton
points; the checks of the fit and the grid; and, on heavy-tailed samples,
the intervals against a simplex walk over the same grid.
"""

import dataclasses
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import blockmax as bm
from blockmax import inference, profiles
from blockmax.inference import (
    NONREGULAR,
    PENALTY,
    ConvergenceError,
    DegenerateSampleError,
    ProfileBracketError,
    fit_gev,
    fit_gumbel,
    profile,
)
from blockmax.profiles import (
    _deviance_interval,
    _pinned,
    _restricted,
    _restricted_derivatives,
    _restricted_rows,
)
from blockmax.returns import level_location_shape, location_for_level, return_level
from blockmax.simplex import minimize
from blockmax.special import chi2_quantile


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
    k = _pinned(model, which, p)
    objective = _restricted(sample, model, k, p)
    lanes = _restricted_derivatives(sample, model, k, p)

    def derivatives(g, x):  # one lane
        return lanes(np.array([g]), x[None, :])

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
    got = [float(term[0]) for term in level_location_shape(p)(np.array([xi]))]
    np.testing.assert_allclose(got, expected, rtol=1e-11, atol=0.0)


# -- a return level whose location overflows ---------------------------------------

MAXIMA = Path(__file__).with_name("data") / "maxima.txt"


def test_an_overflowing_location_is_a_penalty_of_the_objective():
    values = bm.data.ingest(MAXIMA).values
    objective = _restricted(values, "gev", 0, 0.01)
    # y_p**(-xi) = exp(200 * 4.6) is beyond the floats: no location puts the
    # 100-block level at 150, and math.expm1 used to raise OverflowError here
    assert math.isnan(location_for_level(150.0, 20.0, 200.0, 0.01))
    assert objective(150.0, np.array([20.0, 200.0])) == PENALTY + 200.0
    assert objective(150.0, np.array([20.0, 0.1])) < PENALTY


def test_an_overflowing_location_is_not_valid_in_the_lane_wise_chain_rule():
    values = bm.data.ingest(MAXIMA).values
    objective = _restricted(values, "gev", 0, 0.01)
    G = np.array([150.0, 150.0, 150.0])
    R = np.array([[20.0, 200.0], [20.0, 0.1], [20.0, -200.0]])
    value, valid, score, info, cross = _restricted_derivatives(values, "gev", 0, 0.01)(G, R)
    assert valid.tolist() == [False, True, False]
    assert value.tolist() == [objective(g, r) for g, r in zip(G, R)]
    assert np.isfinite(score[1]).all() and np.isfinite(info[1]).all() and np.isfinite(cross[1]).all()
    rows_value, rows_valid = _restricted_rows(values, "gev", 0, 0.01)(G, R)
    assert _bits(rows_value) == _bits(value) and rows_valid.tolist() == valid.tolist()


def test_a_far_level_lane_forms_its_chain_rule_without_warnings(sample):
    (z,), _, _ = inference._standardize(sample[None, :])
    k = _pinned("gev", "return_level", 0.01)
    problem = profiles._Problem(z, "gev", k, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the product h_mumu * v v' overflowed here
        value, valid, score, info, cross = problem.derivatives(np.array([3.0]), np.array([[1.0, 80.0]]))
    # a valid lane, its location about -8.4e157: the Hessian is not finite, so not definite
    assert valid[0] and not np.isfinite(info).all()
    assert not inference._newton_direction(score, info)[2][0]


# -- fallbacks, expansion and the crossing rule --------------------------------------


def _simplex_walk(values, model, which, p, fit, grid):
    """The profile log-likelihoods of a walk of simplex searches over ``grid``.

    Walks up from the grid point at the estimate and down from its neighbour,
    each point from its neighbour's optimum, the first ones from the estimate,
    on the sample standardized as :func:`profile` standardizes it.
    """
    k = _pinned(model, which, p)
    Z, shift, scale = inference._standardize(values[None, :])
    shift, scale = float(shift[0]), float(scale[0])
    objective = _restricted(Z[0], model, k, p)
    theta = fit.theta.copy()
    theta[0] = (theta[0] - shift) / scale
    theta[1] /= scale
    start = np.delete(theta, k)
    offset = shift if which in ("mu", "return_level") else 0.0
    unit = 1.0 if which == "xi" else scale
    center = bm.returns.return_level(fit.params, p) if which == "return_level" else fit.theta[k]
    i0 = int(np.argmin(np.abs(grid - center)))
    lp = np.empty(grid.size)
    for leg in (range(i0, grid.size), range(i0 - 1, -1, -1)):
        warm = start
        for j in leg:
            opt = minimize(lambda r: objective((grid[j] - offset) / unit, r), warm)
            lp[j], warm = -opt.f_min, opt.x_min
    return lp - values.size * math.log(scale)


def test_points_that_fall_back_are_the_simplex_walk_bit_for_bit(sample, monkeypatch):
    fit = fit_gev(sample)
    grid = fit.params.mu + np.linspace(-5.0, 5.0, 27)
    # the free shape of every lane of a profile of mu is nonregular: every point falls back
    monkeypatch.setattr(inference, "NONREGULAR_XI", math.inf)
    curve = profile(sample, "gev", which="mu", grid=grid, fit=fit)
    assert curve.counts[NONREGULAR] == curve.grid.size and curve.counts["newton"] == 0
    # one point per leg and wave, as a walk from point to point
    i0 = int(np.argmin(np.abs(curve.grid - fit.params.mu)))
    assert curve.counts["waves"] == max(i0, curve.grid.size - i0)
    assert _bits(curve.lp) == _bits(_simplex_walk(sample, "gev", "mu", None, fit, curve.grid))


def test_counts_and_expansions(sample):
    fit = fit_gev(sample)
    curve = profile(sample, "gev", which="xi", tau=1e-5, fit=fit)  # widens its grid once
    assert curve.expansions == 1 and curve.grid.size == 151
    assert curve.counts["newton"] == curve.grid.size
    assert curve.grid.size <= curve.counts["steps"] <= 4 * curve.grid.size
    plain = profile(sample, "gev", which="xi", fit=fit)
    assert plain.expansions == 0 and plain.counts["newton"] == plain.grid.size


def test_expansion_legs_continue_from_the_edge_optima(sample, monkeypatch):
    calls = []
    lockstep = profiles._lockstep

    def spy(problem, legs, counts):
        out = lockstep(problem, legs, counts)
        calls.append((legs, out))
        return out

    monkeypatch.setattr(profiles, "_lockstep", spy)
    fit = fit_gev(sample)
    curve = profile(sample, "gev", which="xi", tau=1e-5, fit=fit)
    (first_legs, first_out), (legs, _) = calls
    _, shift, scale = inference._standardize(sample[None, :])
    start = np.array([(fit.params.mu - shift[0]) / scale[0], fit.params.sigma / scale[0]])
    for leg in first_legs:  # anchored at the standardized estimate, with the tangent there
        assert leg[1][0] == fit.params.xi and _bits(leg[1][1]) == _bits(start)
        assert leg[1][2] is not None
    (_, hi_edge), (_, lo_edge) = first_out
    widened = 0
    for (leg, anchor), edge in zip(legs, (lo_edge, hi_edge)):
        assert anchor is edge  # the optimum, and its slope, at the edge the leg extends
        if leg.size:
            widened += 1
            assert edge[2] is not None  # a Newton optimum carries its slope
            assert abs(leg[0] - edge[0]) == pytest.approx(curve.grid[1] - curve.grid[0], rel=1e-9)
    assert widened == 1


def test_profiles_of_xi_stay_above_minus_one(monkeypatch):
    # at xi <= -1 the likelihood has no maximum (Smith 1985); this sample's
    # profile of xi reached -3.2 there, at a point that moved with its offset
    lowest = []
    lockstep = profiles._lockstep

    def spy(problem, legs, counts):
        lowest.extend(leg.min() for leg, _ in legs if leg.size)
        return lockstep(problem, legs, counts)

    monkeypatch.setattr(profiles, "_lockstep", spy)
    x = bm.sample(bm.GevParams(79.0, 21.0, -0.25), 30, seed=508).values
    for offset in (0.0, 8.6e9):
        with pytest.raises(ProfileBracketError) as caught:
            profile(x + offset, "gev", "xi")
        assert caught.value.side == "lower"
    assert min(lowest) > -1.0
    with pytest.raises(ValueError, match="above -1"):
        profile(x, "gev", "xi", grid=[-1.0, -0.5, 0.0])
    bounded = bm.sample(bm.GevParams(50.0, 10.0, -0.6), 10, seed=0).values  # estimate xi = -1.06
    with pytest.raises(ProfileBracketError, match="lower"):
        profile(bounded, "gev", "xi", grid=[-0.5, 0.0])


@pytest.mark.parametrize("which", ["mu", "xi"])
def test_a_fit_of_another_model_is_refused(sample, which):
    # unchecked, these raised a TypeError from the kernel (mu) and an IndexError (xi)
    with pytest.raises(ValueError, match="the gev model from a gumbel fit"):
        profile(sample, "gev", which, fit=fit_gumbel(sample))
    with pytest.raises(ValueError, match="the gumbel model from a gev fit"):
        profile(sample, "gumbel", "mu", fit=fit_gev(sample))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_grid_value_that_is_not_finite_is_refused(sample, bad):
    with pytest.raises(ValueError, match="grid values must be finite"):
        profile(sample, "gev", "mu", grid=[75.0, bad, 85.0])


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


# -- lockstep grids against a sequential walk ---------------------------------------


def _walk(values, model, which, p, fit, grid):
    """The profile log-likelihoods of a sequential walk over ``grid``.

    Walks up from the grid point at the estimate and down from its
    neighbour, both from the estimate; each point is a one-lane Newton solve
    from its neighbour's optimum plus the tangent step, or the simplex
    search from the neighbour's optimum where Newton fails.
    """
    k = _pinned(model, which, p)
    problem = profiles._Problem(values, model, k, p)
    start = np.delete(fit.theta, k)
    center = return_level(fit.params, p) if which == "return_level" else fit.theta[k]
    i0 = int(np.argmin(np.abs(grid - center)))
    lp = np.empty(grid.size)
    for leg in (range(i0, grid.size), range(i0 - 1, -1, -1)):
        g0, r0, slope0 = center, start, None
        for j in leg:
            g = grid[j]
            warm = r0 if slope0 is None else r0 + slope0 * (g - g0)
            r, f, cause, _, slope = profiles._newton_lanes(problem, np.array([g]), warm[None, :])
            if cause[0]:
                opt = minimize(lambda x: problem.objective(g, x), r0)
                r0, lp[j], slope0 = opt.x_min, -opt.f_min, None
            else:
                r0, lp[j], slope0 = r[0], -f[0], slope[0]
            g0 = g
    return lp


def _agrees_with_the_walk(values, model, which, p, fit, **kwargs):
    """Profile with ``kwargs`` against :func:`_walk` over the grid where the
    interval is formed; returns the curve, or the side that did not bracket."""
    formed = {}
    interval = profiles._deviance_interval

    def spy(grid, lp, lhat, critical):
        formed.update(grid=grid, lp=lp, critical=critical)
        return interval(grid, lp, lhat, critical)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(profiles, "_deviance_interval", spy)
        try:
            outcome = profile(values, model, which=which, p=p, fit=fit, **kwargs)
        except ProfileBracketError as error:
            outcome = error.side
    lhat = -fit.nllh
    grid, lp, critical = formed["grid"], formed["lp"], formed["critical"]
    assert lp.max() <= lhat + 1e-8 * abs(lhat)  # no grid point beats the MLE
    walked = _walk(values, model, which, p, fit, grid)
    near = 2.0 * (lhat - lp) <= 2.0 * critical
    assert np.all(-lp[near] <= -walked[near] + 1e-9 * np.abs(walked[near]))
    try:
        lower, upper = _deviance_interval(grid, walked, lhat, critical)
    except ProfileBracketError as error:
        assert outcome == error.side
        return outcome
    center = return_level(fit.params, p) if which == "return_level" else fit.theta[_pinned(model, which, p)]
    assert not isinstance(outcome, str) and outcome.ci[0] < center < outcome.ci[1]
    width = upper - lower
    assert abs(outcome.ci[0] - lower) <= 1e-9 * width and abs(outcome.ci[1] - upper) <= 1e-9 * width
    return outcome


@pytest.mark.parametrize("model, which, p, kwargs", [
    ("gev", "xi", None, dict(grid=np.linspace(-0.2, 0.45, 27))),
    ("gev", "xi", None, dict(tau=1e-5)),  # expands its grid
    ("gev", "return_level", 0.01, dict(grid=np.linspace(150.0, 300.0, 40))),
    ("gumbel", "return_level", 0.01, {}),
    ("gumbel", "sigma", None, {}),
])
def test_lockstep_profiles_match_a_sequential_walk(sample, model, which, p, kwargs):
    fit = fit_gev(sample) if model == "gev" else fit_gumbel(sample)
    curve = _agrees_with_the_walk(sample, model, which, p, fit, **kwargs)
    assert curve.counts["newton"] == curve.grid.size
    assert curve.counts["waves"] <= 3  # where a walk takes a step per point of its longer leg


# -- far starts: steps on the modified information -----------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_modified_direction_is_newton_on_the_absolute_eigenvalues(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(60, 2, 2)) * rng.lognormal(0.0, 3.0, size=(60, 1, 1))
    H = A + A.transpose(0, 2, 1)
    H[:20] = A[:20] @ A[:20].transpose(0, 2, 1)  # positive definite
    g = rng.normal(size=(60, 2))
    step, decrement = inference._modified_direction(g, H)
    w, V = np.linalg.eigh(H)
    m = np.maximum(np.abs(w), inference.EIGEN_FLOOR * np.abs(w).max(axis=1, keepdims=True))
    expected = -np.einsum("lij,lj->li", V @ (V.transpose(0, 2, 1) / m[:, :, None]), g)
    scale = np.abs(expected).max(axis=1, keepdims=True)  # per lane
    assert np.all(np.abs(step - expected) <= 1e-9 * scale)
    np.testing.assert_allclose(decrement, -np.einsum("li,li->l", g, expected), rtol=1e-9)
    assert np.all(np.einsum("li,li->l", g, step) < 0.0)  # a descent direction
    newton, newton_decrement, definite = inference._newton_direction(g, H)
    assert definite[:20].all() and not definite[20:].all()
    assert np.all(np.abs(step - newton)[definite] <= 1e-9 * scale[definite])
    np.testing.assert_allclose(decrement[definite], newton_decrement[definite], rtol=1e-9)
    one = inference._modified_direction(g[:, :1], -H[:, :1, :1])
    np.testing.assert_array_equal(one[0], -g[:, :1] / np.abs(H[:, :1, 0]))


def _steep_level():
    """A sample whose 100-block-level profile starts most far points, on the
    estimate's tangent, where the restricted information is indefinite."""
    values = bm.sample(bm.GevParams(79.0, 21.0, 0.1), 129, seed=11).values
    return values, fit_gev(values)


def test_far_starts_step_through_indefinite_information(monkeypatch):
    values, fit = _steep_level()
    bent = []
    modified = inference._modified_direction

    def spy(g, H):
        bent.append(g.shape[0])
        return modified(g, H)

    monkeypatch.setattr(inference, "_modified_direction", spy)
    curve = _agrees_with_the_walk(values, "gev", "return_level", 0.01, fit)
    assert sum(bent) and curve.counts["newton"] == curve.grid.size
    assert curve.counts["waves"] <= 2
    # plain Newton lanes wait for the solved points to come near them
    newton_lanes = profiles._newton_lanes
    monkeypatch.setattr(profiles, "_newton_lanes",
                        lambda problem, g, start, free=None: newton_lanes(problem, g, start))
    strict = profile(values, "gev", which="return_level", p=0.01, fit=fit)
    assert strict.counts["waves"] >= 6
    np.testing.assert_allclose(strict.ci, curve.ci, rtol=1e-13)


def test_free_lanes_stop_after_free_steps(monkeypatch):
    values, fit = _steep_level()
    passes = []
    newton_rows = profiles._newton_rows

    def spy(derivatives, nllh_rows, width, theta, xi_column=None, free=None):
        count = np.zeros(theta.shape[0], dtype=int)

        def counted(lanes, points):
            count[lanes] += 1
            return derivatives(lanes, points)

        out = newton_rows(counted, nllh_rows, width, theta, xi_column, free)
        passes.append((count, free))
        return out

    monkeypatch.setattr(profiles, "_newton_rows", spy)
    profile(values, "gev", which="return_level", p=0.01, fit=fit)
    most = [count[free].max(initial=0) for count, free in passes]
    assert max(most) == inference.FREE_STEPS + 1  # the cap binds, and holds
    assert max(count[~free].max(initial=0) for count, free in passes) <= inference.NEWTON_STEPS + 1


def test_pinned_nonregular_shapes_are_newton_points():
    # with xi pinned above -1 the likelihood is bounded (Smith 1985): the
    # points of this profile in (-1, -0.5] are Newton lanes, no worse than
    # the simplex walk
    values = bm.sample(bm.GevParams(79.0, 21.0, -0.3), 129, seed=3).values
    fit = fit_gev(values)
    curve = _agrees_with_the_walk(values, "gev", "xi", None, fit)
    below = (curve.grid > -1.0) & (curve.grid <= inference.NONREGULAR_XI)
    assert below.any() and curve.counts["newton"] == curve.grid.size
    walked = _simplex_walk(values, "gev", "xi", None, fit, curve.grid)
    assert np.all(curve.lp[below] >= walked[below] - 1e-9 * np.abs(walked[below]))


def _draw_sample(draw):
    model = draw(st.sampled_from(["gev", "gumbel"]))
    xi = draw(st.floats(-0.4, 0.4)) if model == "gev" else 0.0
    n = draw(st.integers(30, 200))
    values = bm.sample(bm.GevParams(50.0, 10.0, xi), n, seed=draw(st.integers(0, 2**16))).values
    which, p = draw(st.sampled_from(
        [("xi" if model == "gev" else "sigma", None), ("return_level", 0.1), ("return_level", 0.01)]))
    return values, model, which, p


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_lockstep_profiles_match_a_sequential_walk_on_random_samples(data):
    values, model, which, p = _draw_sample(data.draw)
    try:
        fit = fit_gev(values) if model == "gev" else fit_gumbel(values)
    except (ConvergenceError, DegenerateSampleError):
        return
    if fit.cov is None:
        return
    _agrees_with_the_walk(values, model, which, p, fit)


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


def test_a_level_profile_of_a_fit_below_the_gumbel_switch_holds_its_center():
    values = bm.sample(bm.GevParams(80.0, 20.0, 0.0), 129, seed=3).values
    fit = fit_gev(values)
    fit = dataclasses.replace(fit, params=bm.GevParams(fit.params.mu, fit.params.sigma, 1e-10))
    # its standard error takes the three-component gradient at xi = 1e-10
    curve = profile(values, "gev", "return_level", p=0.01, fit=fit)
    assert curve.ci[0] < return_level(fit.params, 0.01) < curve.ci[1]


def test_gumbel_profiles_take_newton_steps(sample):
    fit = fit_gumbel(sample)
    for which, p in (("mu", None), ("sigma", None), ("return_level", 0.01)):
        curve = profile(sample, "gumbel", which=which, p=p, fit=fit)
        assert curve.counts["newton"] == curve.grid.size
