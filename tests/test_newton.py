"""Derivative row kernels and Newton refits.

The score and information of the derivative kernels against mpmath
differentiation of the per-value negative log-likelihood at 50 digits; the
row contract (row r is the one-row call, bit for bit, and the value is the
row kernel's); and ``Refit(model, start)``: Newton optima at least as good
as the simplex search's, fallback rows bit for bit those of
``Refit(model)``, and the loop, the batched and the forked runs identical.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockmax as bm
from blockmax import _fork
from blockmax.inference import (
    NONREGULAR,
    Refit,
    _newton_direction,
    _newton_rows,
    _search,
)
from blockmax.likelihood import (
    gev_derivatives_rows,
    gev_nllh_rows,
    gumbel_derivatives_rows,
    gumbel_nllh_rows,
)
from blockmax.resampling import bootstrap, jackknife

LABELS = ("mu", "sigma", "xi")


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


# -- the derivative kernels against mpmath ------------------------------------------


def _mp_nllh(x, mu, sigma, xi):
    z = (x - mu) / sigma
    if xi is None:  # the Gumbel surface
        return mpmath.log(sigma) + z + mpmath.exp(-z)
    t = 1 + xi * z
    return mpmath.log(sigma) + (1 + 1 / xi) * mpmath.log(t) + t ** (-1 / xi)


def _mp_derivatives(values, theta, gumbel):
    """Score, information and the sums of the absolute per-value terms of each."""
    d = len(theta)
    score, score_abs = np.zeros(d), np.zeros(d)
    info, info_abs = np.zeros((d, d)), np.zeros((d, d))
    with mpmath.workdps(50):
        point = [mpmath.mpf(float(v)) for v in theta]
        for v in values:
            x = mpmath.mpf(float(v))
            if gumbel:
                f = lambda mu, sigma: _mp_nllh(x, mu, sigma, None)
            else:
                f = lambda mu, sigma, xi: _mp_nllh(x, mu, sigma, xi)
            for i in range(d):
                order = [0] * d
                order[i] = 1
                term = float(mpmath.diff(f, point, tuple(order)))
                score[i] += term
                score_abs[i] += abs(term)
                for j in range(i, d):
                    order = [0] * d
                    order[i] += 1
                    order[j] += 1
                    term = float(mpmath.diff(f, point, tuple(order)))
                    info[i, j] += term
                    info_abs[i, j] += abs(term)
                    info[j, i], info_abs[j, i] = info[i, j], info_abs[i, j]
    return score, score_abs, info, info_abs


def _quantiles(mu, sigma, xi, probabilities):
    y = -np.log(probabilities)
    if xi == 0.0:
        return mu - sigma * np.log(y)
    return mu + sigma * np.expm1(-xi * np.log(y)) / xi


def _assert_matches_mpmath(values, theta, gumbel):
    X = values[None, :]
    params = [np.array([v]) for v in theta]
    kernel = gumbel_derivatives_rows if gumbel else gev_derivatives_rows
    _, valid, score, info = kernel(X, *params)
    assert valid[0]
    want, want_abs, want_info, want_info_abs = _mp_derivatives(values, theta, gumbel)
    # relative to the sum of the magnitudes of the per-value terms, the scale
    # of the rounding in any summation
    assert np.all(np.abs(score[0] - want) <= 1e-8 * want_abs)
    assert np.all(np.abs(info[0] - want_info) <= 1e-8 * want_info_abs)


SHAPES = st.one_of(
    st.floats(-0.45, 0.9).filter(lambda v: abs(v) >= 1e-3),
    st.builds(lambda m, sign: sign * m, st.floats(1e-9, 1e-3), st.sampled_from([-1.0, 1.0])),
)


@settings(max_examples=15, deadline=None)
@given(mu=st.floats(-100.0, 100.0), sigma=st.floats(0.05, 50.0), xi=SHAPES,
       probabilities=st.lists(st.floats(0.01, 0.99), min_size=4, max_size=8))
def test_gev_derivatives_match_mpmath(mu, sigma, xi, probabilities):
    # points on the fitted scale of the data, and a shifted point beside it
    values = _quantiles(mu, sigma, xi, np.array(probabilities))
    _assert_matches_mpmath(values, (mu, sigma, xi), gumbel=False)
    _assert_matches_mpmath(values, (mu - 0.1 * sigma, 1.2 * sigma, xi), gumbel=False)


@settings(max_examples=10, deadline=None)
@given(mu=st.floats(-100.0, 100.0), sigma=st.floats(0.05, 50.0),
       probabilities=st.lists(st.floats(0.01, 0.99), min_size=4, max_size=8))
def test_gumbel_derivatives_match_mpmath(mu, sigma, probabilities):
    values = _quantiles(mu, sigma, 0.0, np.array(probabilities))
    _assert_matches_mpmath(values, (mu, sigma), gumbel=True)
    _assert_matches_mpmath(values, (mu + 0.2 * sigma, 0.8 * sigma), gumbel=True)


def test_gev_derivatives_meet_the_gumbel_branch_at_zero_shape():
    x = bm.sample(bm.GevParams(10.0, 2.0, 0.0), 50, seed=4).values[None, :]
    mu, sigma = np.array([10.3]), np.array([2.2])
    value, valid, score, info = gev_derivatives_rows(x, mu, sigma, np.array([0.0]))
    g_value, g_valid, g_score, g_info = gumbel_derivatives_rows(x, mu, sigma)
    assert valid[0] and _bits(value) == _bits(g_value)
    assert np.allclose(score[0, :2], g_score[0], rtol=1e-13, atol=1e-12)
    assert np.allclose(info[0, :2, :2], g_info[0], rtol=1e-13, atol=1e-12)
    # continuous in xi through 0, across the Gumbel switch
    for xi in (1e-12, -1e-12, 1e-8, -1e-8):
        _, _, near_score, near_info = gev_derivatives_rows(x, mu, sigma, np.array([xi]))
        scale = np.abs(info[0]).max()
        assert np.abs(near_score - score).max() <= 1e-6 * scale
        assert np.abs(near_info - info).max() <= 1e-6 * scale


# -- the row contract ------------------------------------------------------------


def _lanes(lanes, n, seed):
    """Rows of a GEV sample with per-lane parameters on every branch of the kernels."""
    rng = np.random.Generator(np.random.PCG64(seed))
    X = bm.sample(bm.GevParams(79.0, 21.0, 0.1), lanes * n, seed=seed).values.reshape(lanes, n)
    mu = rng.uniform(60.0, 90.0, lanes)
    sigma = rng.uniform(10.0, 30.0, lanes)
    xi = rng.choice([-0.3, -0.03, 0.0, 1e-10, 4e-4, -2e-3, 0.2, 0.6], lanes)
    sigma[rng.random(lanes) < 0.1] = -1.0  # sigma <= 0
    xi[rng.random(lanes) < 0.1] = -2.0  # outside the support
    return X, mu, sigma, xi


@pytest.mark.parametrize("lanes, n, seed", [(1, 40, 0), (37, 129, 1), (64, 33, 2)])
def test_derivative_rows_match_one_row_calls_and_the_row_kernels(lanes, n, seed):
    X, mu, sigma, xi = _lanes(lanes, n, seed)
    cases = ((gev_derivatives_rows, gev_nllh_rows, (mu, sigma, xi)),
             (gumbel_derivatives_rows, gumbel_nllh_rows, (mu, sigma)))
    for derivatives, row_kernel, params in cases:
        value, valid, score, info = derivatives(X, *params)
        want_value, want_valid = row_kernel(X, *params)
        assert _bits(value) == _bits(want_value)
        assert np.array_equal(valid, want_valid)
        for r in range(lanes):
            one = derivatives(X[r:r + 1].copy(), *(p[r:r + 1] for p in params))
            assert _bits(one[0]) == _bits(value[r:r + 1])
            if valid[r]:
                assert _bits(one[2]) == _bits(score[r:r + 1])
                assert _bits(one[3]) == _bits(info[r:r + 1])


# -- Newton refits ---------------------------------------------------------------


def _resamples(x, lanes, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return x[rng.integers(0, x.size, size=(lanes, x.size))]


def _decrement(model, X, theta):
    derivatives = gev_derivatives_rows if model == "gev" else gumbel_derivatives_rows
    value, _, score, info = derivatives(X, *theta.T)
    return value, _newton_direction(score, info)[1]


def _simplex_rows(X, model):
    """The simplex search from the moment start on each row: ``(theta, converged)``."""
    opts = [_search(row, model) for row in X]
    return np.array([opt.x_min for opt in opts]), np.array([opt.converged for opt in opts])


@pytest.mark.parametrize("model", ["gev", "gumbel"])
def test_newton_optima_are_at_least_as_good_as_the_simplex_ones(model):
    x = bm.sample(bm.GevParams(79.0, 21.0, 0.0), 129, seed=101).values
    fit = bm.fit_gev(x) if model == "gev" else bm.fit_gumbel(x)
    X = _resamples(x, 120, 3)
    old, old_ok = _simplex_rows(X, model)
    refit = Refit(model, start=fit.theta)
    new, new_ok = refit.rows(X)
    assert old_ok.all() and new_ok.all()
    assert refit.counts["newton"] == X.shape[0]
    old_nllh, old_decrement = _decrement(model, X, old)
    new_nllh, new_decrement = _decrement(model, X, new)
    assert np.all(new_nllh <= old_nllh + 1e-9 * np.abs(old_nllh))
    assert np.all(new_decrement < old_decrement)
    assert np.all(np.abs(new - old) < 1e-5 * fit.se)


def test_fallback_rows_are_the_simplex_rows_bit_for_bit():
    # a small, bounded sample: some resamples leave the regular shapes
    x = bm.sample(bm.GevParams(0.0, 1.0, -0.3), 20, seed=2).values
    fit = bm.fit_gev(x)
    X = _resamples(x, 40, 1)
    *_, cause, _ = _newton_rows(
        lambda lanes, points: gev_derivatives_rows(X[lanes], *points.T),
        lambda lanes, points: gev_nllh_rows(X[lanes], *points.T),
        np.tile(fit.theta, (X.shape[0], 1)), 2)
    fallback = cause != ""
    assert 0 < np.count_nonzero(fallback) < X.shape[0]
    assert NONREGULAR in set(cause)
    refit = Refit("gev", start=fit.theta)
    new, new_ok = refit.rows(X)
    old, old_ok = Refit("gev").rows(X)
    assert _bits(new[fallback]) == _bits(old[fallback])
    assert np.array_equal(new_ok[fallback], old_ok[fallback])
    assert sum(refit.counts[c] for c in set(cause) - {""}) == np.count_nonzero(fallback)


def test_a_nonregular_start_falls_back_on_every_row():
    x = bm.sample(bm.GevParams(0.0, 1.0, -0.8), 12, seed=5).values
    fit = bm.fit_gev(x)
    assert fit.params.xi <= -0.5
    X = _resamples(x, 8, 2)
    refit = Refit("gev", start=fit.theta)
    new, new_ok = refit.rows(X)
    old, old_ok = Refit("gev").rows(X)
    assert _bits(new) == _bits(old) and np.array_equal(new_ok, old_ok)
    assert refit.counts[NONREGULAR] == X.shape[0] - np.count_nonzero(X.min(axis=1) == X.max(axis=1))


def _plain(refit):
    return lambda v: refit(v)  # hides .rows: the one-at-a-time loop


def _same_report(a, b):
    for name in ("estimate", "bias", "se", "ratio", "rmse", "corrected"):
        assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name
    assert (a.failed, a.failures) == (b.failed, b.failures)


@pytest.mark.parametrize("model", ["gev", "gumbel"])
def test_newton_loop_and_batches_give_the_same_reports(model):
    x = bm.sample(bm.GevParams(79.0, 21.0, 0.05), 60, seed=2).values
    fit = bm.fit_gev(x) if model == "gev" else bm.fit_gumbel(x)
    refit = Refit(model, start=fit.theta)
    _same_report(bootstrap(x, refit, b=150, seed=7), bootstrap(x, _plain(refit), b=150, seed=7))
    _same_report(jackknife(x, refit), jackknife(x, _plain(refit)))


def test_newton_loop_and_batches_agree_on_failing_replicates():
    x = bm.sample(bm.GevParams(0.0, 1.0, -0.8), 12, seed=5).values
    refit = Refit("gev", start=np.array([0.1, 0.9, -0.3]))
    batched = bootstrap(x, refit, b=16, seed=1, labels=LABELS)
    loop = bootstrap(x, _plain(refit), b=16, seed=1, labels=LABELS)
    assert batched.failures == {"not_converged": 1}
    _same_report(batched, loop)


def test_newton_bootstrap_matches_the_serial_run():
    if _fork.processes(2, 1) < 2:
        pytest.skip("the fork rule allows one process here")
    x = bm.sample(bm.GevParams(79.0, 21.0, 0.1), 129, seed=1).values
    fit = bm.fit_gev(x)

    def run():
        refit = Refit("gev", start=fit.theta)
        return bootstrap(x, refit, b=400, seed=4, labels=LABELS), jackknife(x, refit)

    split = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_fork, "cpus", lambda: 1)
        alone = run()
    for a, b in zip(split, alone):
        _same_report(a, b)


def test_refit_start_must_fit_the_model():
    with pytest.raises(ValueError, match="start"):
        Refit("gumbel", start=[1.0, 2.0, 0.1])
    with pytest.raises(ValueError, match="start"):
        Refit("gev", start=[1.0, np.nan, 0.1])
