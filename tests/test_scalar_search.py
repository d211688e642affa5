"""The plain-float search and in-place kernels against their frozen array oracles.

``tests/frozen_scalar_search.py`` keeps the numpy-array ``minimize`` and the
scalar numpy kernels as they were before the rewrite.  Every result here must
match them bit for bit: the points the objective is called at, the
``OptResult`` fields (or the simplex a pass ends on), the kernel values and
the warnings they raise.  Also here: the evaluation counts, full fits no
worse than that search, the restricted profile objective, and the rejection
of degenerate (constant) samples.
"""

import math
import warnings
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blockmax as bm
import frozen_scalar_search as frozen
from blockmax import simplex as live
from blockmax._core import _kernels_py as kernels
from blockmax.cli import main
from blockmax.gev import GUMBEL_XI_EPS
from blockmax.inference import (
    ConvergenceError,
    DegenerateSampleError,
    Refit,
    fit_gev,
    fit_gumbel,
    profile,
)
from blockmax.likelihood import gev_nllh_value, gumbel_nllh_value
from blockmax.resampling import ResamplingError, bootstrap, jackknife
from blockmax.returns import level_location, location_for_level
from blockmax.simplex import OptResult, minimize


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


# -- minimize against the array formulation ---------------------------------------

OBJECTIVES = ("quadratic", "ties", "abs", "penalized", "nan")


def _objective(kind, a, c):
    """A deterministic test surface; 'ties' and 'abs' tie often, 'nan' has a NaN region."""

    def quadratic(x):
        return float(np.dot(a, (x - c) ** 2)) + 0.1 * math.sin(x[0] * x[-1])

    if kind == "quadratic":
        return quadratic
    if kind == "ties":
        return lambda x: math.floor(quadratic(x) * 4.0) / 4.0
    if kind == "abs":
        return lambda x: float(np.abs(x - c).sum())
    if kind == "penalized":  # the likelihood kernels' shape: 1e10 plus the breach
        edge = c[0] - 1.0
        return lambda x: 1e10 + (edge - x[0]) if x[0] < edge else quadratic(x)
    return lambda x: quadratic(x) if x[-1] <= c[-1] + 1.5 else float("nan")


def _recorded(fn):
    calls = []

    def objective(x):
        value = fn(x)
        calls.append((_bits(x), _bits(value)))
        return value

    return objective, calls


def _without_repeated_x0(calls):
    # the frozen search evaluates x0 again as vertex 0 of its default simplex;
    # the live one reuses the value of its finiteness check
    if len(calls) > 1:
        assert calls[1] == calls[0]
        del calls[1]


def _outcome(search, fn, x0):
    objective, calls = _recorded(fn)
    try:
        r = search(objective, x0)
    except ValueError as exc:
        return ("raised", str(exc)), calls, None
    finally:
        if search is frozen.minimize:
            _without_repeated_x0(calls)
    fields = (_bits(r.x_min), _bits(r.f_min), r.iterations, r.converged, r.restarts)
    return fields, calls, r


def _pass(fn, simplex):
    """One pass of the live and of the frozen ``_run`` from ``simplex``:
    ``(got, got_calls), (want, want_calls)``, with the live pass's evaluation
    count checked against its calls."""
    objective, got_calls = _recorded(fn)
    verts, fvals, converged, iterations, evals = live._run(objective, simplex.tolist())
    assert evals == len(got_calls)
    got = (_bits(verts), _bits(fvals), converged, iterations)
    objective, want_calls = _recorded(fn)
    verts, fvals, converged, iterations = frozen._run(objective, simplex.copy())
    want = (_bits(verts), _bits(fvals), converged, iterations)
    return (got, got_calls), (want, want_calls)


@contextmanager
def _max_iter(limit):
    """Both searches with ``limit`` iterations per pass."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(live, "MAX_ITER", limit)
        patch.setattr(frozen, "MAX_ITER", limit)
        yield


coords = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(OBJECTIVES),
    d=st.integers(1, 4),
    data=st.data(),
    max_iter=st.sampled_from([0, 1, 7, 40, 400, 5000]),
    with_simplex=st.booleans(),
)
@example(kind="ties", d=2, data=None, max_iter=40, with_simplex=False)
def test_minimize_matches_the_array_search(kind, d, data, max_iter, with_simplex):
    if data is None:  # the explicit example: fixed draws
        a, c, x0 = np.ones(d), np.zeros(d), np.full(d, 3.0)
        simplex = None
    else:
        vec = st.lists(coords, min_size=d, max_size=d).map(np.array)
        a = np.abs(data.draw(vec)) + 0.1
        c, x0 = data.draw(vec), data.draw(vec)
        simplex = data.draw(vec.map(lambda v: v + np.eye(d + 1, d) * 0.5)) if with_simplex else None
    fn = _objective(kind, a, c)

    with _max_iter(max_iter):
        if simplex is not None:  # one pass from a drawn simplex
            got, want = _pass(fn, simplex)
            assert got == want
            return
        want, want_calls, _ = _outcome(frozen.minimize, fn, x0)
        got, got_calls, r = _outcome(minimize, fn, x0)
    assert got == want
    assert got_calls == want_calls
    if r is not None:
        assert r.evaluations == len(got_calls)


def test_minimize_nan_region_is_sorted_last():
    # a NaN vertex stays last (the stable argsort order) and never wins
    fn = _objective("nan", np.ones(2), np.zeros(2))
    want, want_calls, _ = _outcome(frozen.minimize, fn, np.array([0.0, 1.45]))
    got, got_calls, r = _outcome(minimize, fn, np.array([0.0, 1.45]))
    assert got == want and got_calls == want_calls
    assert any(v == _bits(float("nan")) for _, v in got_calls)
    assert math.isfinite(r.f_min)


@pytest.mark.parametrize("simplex", [
    [[0.0, 3.0], [0.5, 0.5], [0.1, 2.0]],
    # two NaN vertices, and the first expansion beats the only finite one:
    # the new best vertex must move in front of it, past the NaN
    [[2.0, 1.0], [1.0, 1.6], [2.0, 2.0]],
])
def test_minimize_sorts_nan_vertices_last_from_any_position(simplex):
    fn = _objective("nan", np.ones(2), np.zeros(2))  # NaN where x[1] > 1.5
    simplex = np.array(simplex)
    for order in ([0, 1, 2], [2, 0, 1], [0, 2, 1]):
        got, want = _pass(fn, simplex[order])
        assert got == want


def test_optresult_positional_construction_still_works():
    r = OptResult(np.zeros(2), 0.0, 3, True, 0)
    assert r.evaluations == 0


# -- kernels against the array formulation --------------------------------------

BASE = bm.sample(bm.GevParams(79.0, 21.0, 0.1), 1000, seed=5).values

# Parameter kinds: "free", or points built from the sample so that each
# branch of the kernel contract is reached.
KINDS = ("free", "near_fit", "sigma", "support", "boundary", "overflow", "tiny_sigma",
         "gumbel_overflow")


def _params(kind, x, u, free):
    lo, hi = float(x.min()), float(x.max())
    if kind == "free":
        return free
    if kind == "near_fit":
        return (79.0 + 10.0 * (u - 0.5), 21.0 * (0.75 + 0.5 * u), 0.03 * (2.0 * u - 1.0))
    if kind == "sigma":  # sigma <= 0
        return (free[0], -5.0 * u, free[2])
    if kind == "support":  # t < 0 at the smallest value
        xi, sigma = 0.2 + u, 5.0
        return (lo + sigma / xi * (1.5 + u), sigma, xi)
    if kind == "boundary":  # t == 0 at the smallest value: xi*(lo - mu)/sigma == -1 exactly
        mu = lo + 2.0
        return (mu, -0.5 * (lo - mu), 0.5)  # lo - mu is exact (Sterbenz)
    if kind == "overflow":  # t ~ 1e-12: t**(-1/xi) overflows
        xi, sigma = 0.01 + 0.02 * u, 1.0
        return (lo + sigma / xi * (1.0 - 1e-12), sigma, xi)
    if kind == "tiny_sigma":  # (x - mu)/sigma itself overflows
        return (free[0], 1e-310, free[2])
    sigma = 0.1 + u  # gumbel_overflow: exp(-z) overflows at every value
    return (hi + 800.0 * sigma, sigma, 0.5)


def _call(kernel, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value, valid = kernel(*args)
            out = (_bits(value), bool(valid))
        except ZeroDivisionError as exc:  # xi == 0, which callers route to the Gumbel kernel
            out = (repr(exc),)
    return out, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    u=st.floats(0.0, 1.0),
    free=st.tuples(
        st.floats(-100.0, 300.0),
        st.one_of(st.floats(-5.0, 0.0), st.floats(1e-3, 80.0)),
        st.one_of(st.floats(-2.0, 2.0), st.floats(-2e-6, 2e-6)).filter(lambda v: v != 0.0),
    ),
    n=st.one_of(st.integers(1, 1000), st.sampled_from([1, 7, 8, 9, 128, 129, 1000])),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="boundary", u=0.5, free=(80.0, 20.0, 0.1), n=129, seed=0)
@example(kind="overflow", u=0.5, free=(80.0, 20.0, 0.1), n=129, seed=0)
@example(kind="tiny_sigma", u=0.5, free=(80.0, 20.0, 0.1), n=129, seed=0)
@example(kind="near_fit", u=0.5, free=(0.0, 0.0, 1.0), n=1, seed=0)  # xi == 0
def test_kernels_match_the_array_kernels(kind, u, free, n, seed):
    x = BASE[np.random.Generator(np.random.PCG64(seed)).integers(0, BASE.size, n)]
    mu, sigma, xi = _params(kind, x, u, free)
    assert _call(kernels.gev_nllh, x, mu, sigma, xi) == _call(frozen.gev_nllh, x, mu, sigma, xi)
    assert _call(kernels.gumbel_nllh, x, mu, sigma) == _call(frozen.gumbel_nllh, x, mu, sigma)


def test_kernel_branches_are_reached():
    x = BASE[:129]
    lo = float(x.min())
    assert kernels.gev_nllh(x, 80.0, -1.0, 0.1) == (frozen.PENALTY + 1.0, False)
    mu = lo + 2.0
    assert kernels.gev_nllh(x, mu, -0.5 * (lo - mu), 0.5) == (frozen.PENALTY, False)
    assert not kernels.gev_nllh(x, lo + 1.0 / 0.02 * (1.0 - 1e-12), 1.0, 0.02)[1]
    assert not kernels.gumbel_nllh(x, float(x.max()) + 800.0, 1.0)[1]
    # the kernels leave their input alone
    before = x.copy()
    kernels.gev_nllh(x, 80.0, 20.0, 0.1)
    kernels.gumbel_nllh(x, 80.0, 20.0)
    assert np.array_equal(x, before)


# -- fits: the whole chain against the frozen search and kernels ------------------


@settings(max_examples=25, deadline=None)
@given(
    xi=st.floats(-0.6, 0.6),
    n=st.integers(10, 300),
    seed=st.integers(0, 2**31),
)
@example(xi=-0.515625, n=10, seed=10)  # the fit does not converge
@example(xi=-0.578125, n=10, seed=0)  # the search ends at xi < -1
def test_fits_match_the_frozen_chain(xi, n, seed):
    values = bm.sample(bm.GevParams(50.0, 10.0, xi), n, seed=seed).values
    mu0, sigma0 = bm.inference._moment_start(values)
    for model, x0 in (("gev", [mu0, sigma0, 0.1]), ("gumbel", [mu0, sigma0])):
        live = gev_nllh_value if model == "gev" else gumbel_nllh_value
        got = minimize(lambda t: live(values, *t.tolist())[0], np.array(x0))
        calls = []

        def objective(t):
            calls.append(None)
            if model == "gumbel" or abs(t[2]) < GUMBEL_XI_EPS:
                return frozen.gumbel_nllh(values, t[0], t[1])[0]
            return frozen.gev_nllh(values, *t)[0]

        want = frozen.minimize(objective, np.array(x0))
        del calls[0]  # its repeated evaluation at x0
        assert _bits(got.x_min) == _bits(want.x_min)
        assert _bits(got.f_min) == _bits(want.f_min)
        assert (got.iterations, got.converged, got.restarts) == \
            (want.iterations, want.converged, want.restarts)
        assert got.evaluations == len(calls)
        # The fit itself is Newton on the standardized sample, with this
        # search on the standardized sample as its fallback: no worse where
        # a maximum exists.  At xi <= -1 the likelihood grows without bound
        # toward the upper end point (Smith 1985), and the two searches stop
        # at different points on the way.
        fit = fit_gev if model == "gev" else fit_gumbel
        if want.converged and want.f_min < frozen.PENALTY:
            nllh = fit(values, compute_se=False).nllh
            if model == "gumbel" or want.x_min[2] > -1.0:
                assert nllh <= want.f_min + 1e-9 * abs(want.f_min)


# -- the restricted profile objective -------------------------------------------


@given(
    level=st.floats(-50.0, 500.0),
    sigma=st.floats(1e-3, 100.0),
    xi=st.one_of(st.floats(-1.0, 1.0), st.floats(-2e-6, 2e-6), st.just(0.0)),
    p=st.floats(1e-6, 0.999),
)
def test_level_location_is_location_for_level(level, sigma, xi, p):
    log_y = math.log(-math.log1p(-p))
    if abs(xi) < GUMBEL_XI_EPS:
        want = level + sigma * log_y
    else:
        want = level - sigma * math.expm1(-xi * log_y) / xi
    assert _bits(level_location(p)(level, sigma, xi)) == _bits(want)
    assert _bits(location_for_level(level, sigma, xi, p)) == _bits(want)


def test_profile_target_errors():
    values = bm.sample(bm.GevParams(0.0, 1.0, 0.1), 60, seed=3).values
    with pytest.raises(ValueError, match="requires the exceedance probability"):
        profile(values, "gev", "return_level")
    with pytest.raises(ValueError, match="cannot profile 'xi' for the gumbel model"):
        profile(values, "gumbel", "xi")
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        profile(values, "gev", "return_level", p=1.5)


# -- degenerate samples ---------------------------------------------------------


@pytest.mark.parametrize("fit", [fit_gev, fit_gumbel])
def test_constant_sample_is_rejected(fit):
    with pytest.raises(DegenerateSampleError, match="all 30 observations equal 5") as err:
        fit(np.full(30, 5.0))
    assert isinstance(err.value, ValueError)
    assert err.value.cause == "degenerate_sample"
    with pytest.raises(DegenerateSampleError):
        profile(np.full(30, 5.0), "gev", "xi")


def test_nearly_constant_sample_still_fits():
    values = np.full(30, 5.0)
    values[7] = 5.5
    assert fit_gumbel(values, compute_se=False).params.sigma > 0.0


@pytest.mark.parametrize("command", [["fit"], ["fit", "--model", "gev"], ["report"], ["resample"]])
def test_cli_exits_2_on_a_constant_series(tmp_path, capsys, command):
    path = tmp_path / "constant.txt"
    path.write_text("Year data\n" + "".join(f"{1900 + i} 5.0\n" for i in range(30)))
    code = main([command[0], str(path), *command[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert "all 30 observations equal 5" in err


@pytest.mark.parametrize("model", ["gev", "gumbel"])
def test_rows_mark_constant_rows_without_raising(model):
    X = bm.sample(bm.GevParams(79.0, 21.0, 0.1), 4 * 40, seed=8).values.reshape(4, 40)
    X_const = np.insert(X, [1, 3], 7.0, axis=0)  # rows 1 and 4 are constant
    failures = Counter()
    theta, ok = Refit(model).rows(X_const, failures)
    assert ok.tolist() == [True, False, True, True, False, True]
    assert failures == Counter(degenerate_sample=2)
    assert np.isnan(theta[~ok]).all()
    want, want_ok = Refit(model).rows(X)
    assert _bits(theta[ok]) == _bits(want) and want_ok.all()


class _Loop:
    """A refit statistic without ``rows``: resampling takes the per-row loop."""

    def __init__(self, model):
        self.refit = Refit(model)

    def __call__(self, values):
        return self.refit(values)


def test_bootstrap_counts_constant_resamples_on_both_paths():
    # 7 of 10 values equal: about 3% of resamples hold nothing else
    values = np.array([5.0] * 7 + [6.0, 7.5, 9.0])
    rows = bootstrap(values, Refit("gumbel"), b=100, seed=3)
    loop = bootstrap(values, _Loop("gumbel"), b=100, seed=3)
    assert rows.failures == loop.failures == {"degenerate_sample": rows.failed}
    assert rows.failed > 0
    assert _bits(rows.bias) == _bits(loop.bias) and _bits(rows.se) == _bits(loop.se)


@pytest.mark.parametrize("statistic", [Refit("gumbel"), _Loop("gumbel")])
def test_jackknife_with_a_constant_deletion_fails(statistic):
    values = np.array([5.0] * 11 + [6.0])  # leaving out the 6.0 leaves a constant sample
    with pytest.raises(ResamplingError, match="observation 11"):
        jackknife(values, statistic)
