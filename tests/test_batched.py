"""The batched replicate engine against its scalar oracle, bit for bit.

Row kernels against the scalar kernels, ``Refit.rows`` against one refit
per row, and ``bootstrap``/``jackknife`` with ``Refit`` (batched rows)
against the one-refit-at-a-time loop that ``reference_resampling`` keeps.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blockmax as bm
import reference_resampling as reference
from blockmax.inference import ConvergenceError, Refit
from blockmax.likelihood import (
    PENALTY,
    gev_nllh_rows,
    gev_nllh_value,
    gumbel_nllh_rows,
    gumbel_nllh_value,
)
from blockmax import resampling
from blockmax.cli import main
from blockmax.resampling import bootstrap, bootstrap_jackknife, jackknife

BASE = bm.sample(bm.GevParams(79.0, 21.0, 0.1), 1000, seed=5).values


# Lane kinds: "free" parameters, or parameters built from the lane's own row
# so that the lane lands on one branch of the kernel contract.
KINDS = ("free", "near_fit", "sigma", "support", "overflow", "near_zero_xi", "gumbel_overflow")


def _lane_params(kind, x, u, free):
    lo, hi = float(x.min()), float(x.max())
    if kind == "free":
        return free
    if kind == "near_fit":  # a valid point close to the sample's own fit
        return (79.0 + 10.0 * (u - 0.5), 21.0 * (0.75 + 0.5 * u), 0.03 * (2.0 * u - 1.0))
    if kind == "sigma":  # sigma <= 0
        return (free[0], -5.0 * u, free[2])
    if kind == "support":  # t = 1 + xi*(x - mu)/sigma < 0 at the smallest value
        xi, sigma = 0.2 + u, 5.0
        return (lo + sigma / xi * (1.5 + u), sigma, xi)
    if kind == "overflow":  # t ~ 1e-12 at the smallest value: t**(-1/xi) overflows
        xi, sigma = 0.01 + 0.02 * u, 1.0
        return (lo + sigma / xi * (1.0 - 1e-12), sigma, xi)
    if kind == "near_zero_xi":  # |xi| < GUMBEL_XI_EPS: the Gumbel surface
        return (lo + 10.0 * u, 1.0 + 20.0 * u, (2.0 * u - 1.0) * 0.9e-9)
    sigma = 0.1 + u  # gumbel_overflow: exp(-z) overflows at every value
    return (hi + 800.0 * sigma, sigma, 0.0)


def _branch(kind, x, p, value, valid):
    """Check that a constructed lane really is on its branch (scalar result)."""
    mu, sigma, xi = p
    if kind == "sigma":
        assert value == PENALTY - sigma and not valid
    elif kind in ("support", "overflow", "gumbel_overflow"):
        assert value >= PENALTY and not valid
    elif kind == "near_fit":
        assert valid
    elif kind == "near_zero_xi":
        assert (value, valid) == gumbel_nllh_value(x, mu, sigma)


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


lane = st.tuples(
    st.sampled_from(KINDS),
    st.floats(0.0, 1.0),
    st.tuples(
        st.floats(-100.0, 300.0),
        st.one_of(st.floats(-5.0, 0.0), st.floats(1e-3, 80.0)),
        st.one_of(st.floats(-2.0, 2.0), st.floats(-2e-9, 2e-9), st.just(0.0)),
    ),
)
FREE = (80.0, 20.0, 0.1)
ALL_BRANCHES = [(kind, 0.5, FREE) for kind in KINDS]


@settings(max_examples=150, deadline=None)
@given(
    lanes=st.lists(lane, min_size=1, max_size=8),
    n=st.sampled_from([1, 7, 8, 9, 40, 128, 129, 300, 1000]),
    seed=st.integers(0, 2**32 - 1),
)
@example(lanes=ALL_BRANCHES, n=129, seed=0)
@example(lanes=ALL_BRANCHES, n=12, seed=1)
def test_row_kernels_match_scalar_kernels(lanes, n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    X = BASE[rng.integers(0, BASE.size, size=(len(lanes), n))]
    params = [_lane_params(kind, X[r], u, free) for r, (kind, u, free) in enumerate(lanes)]
    mu, sigma, xi = (np.array(c) for c in zip(*params))

    gev_value, gev_valid = gev_nllh_rows(X, mu, sigma, xi)
    gum_value, gum_valid = gumbel_nllh_rows(X, mu, sigma)
    for r, (kind, _, _) in enumerate(lanes):
        value, valid = gev_nllh_value(X[r], mu[r], sigma[r], xi[r])
        _branch(kind, X[r], params[r], value, valid)
        assert _same_bits(gev_value[r], value) and gev_valid[r] == valid
        value, valid = gumbel_nllh_value(X[r], mu[r], sigma[r])
        assert _same_bits(gum_value[r], value) and gum_valid[r] == valid


# -- Refit and the resamplers ---------------------------------------------------


@pytest.mark.parametrize("model", ["gev", "gumbel"])
def test_refit_rows_match_scalar_fits(model):
    rng = np.random.Generator(np.random.PCG64(8))
    X = BASE[rng.integers(0, BASE.size, size=(20, 40))]
    refit = Refit(model)
    theta, ok = refit.rows(X)
    for r in range(X.shape[0]):
        assert ok[r]
        assert np.array_equal(theta[r], refit(X[r]))


def test_refit_ok_is_false_exactly_where_the_fit_raises():
    # a small, strongly bounded sample: some resamples do not converge
    x = bm.sample(bm.GevParams(0.0, 1.0, -0.8), 12, seed=3).values
    rng = np.random.Generator(np.random.PCG64(0))
    X = x[rng.integers(0, x.size, size=(40, x.size))]
    refit = Refit("gev")
    theta, ok = refit.rows(X)
    assert not ok.all()
    for r in range(X.shape[0]):
        if ok[r]:
            assert np.array_equal(theta[r], refit(X[r]))
        else:
            with pytest.raises(ConvergenceError):
                refit(X[r])


def test_refit_rejects_unknown_model_and_short_rows():
    with pytest.raises(ValueError):
        Refit("weibull")
    with pytest.raises(ValueError, match="at least"):
        Refit("gev").rows(np.ones((3, 5)))


def _assert_reports_equal(a, b):
    for name in ("estimate", "bias", "se", "ratio", "rmse", "corrected"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.method, a.labels, a.b, a.seed, a.failed, a.failures) == (
        b.method, b.labels, b.b, b.seed, b.failed, b.failures
    )


def test_bootstrap_with_failing_replicates_matches_the_loop():
    x = bm.sample(bm.GevParams(0.0, 1.0, -0.8), 12, seed=5).values
    refit = Refit("gev")
    batched = bootstrap(x, refit, b=100, seed=1, labels=("mu", "sigma", "xi"))
    loop = reference.bootstrap(x, refit, b=100, seed=1, labels=("mu", "sigma", "xi"))
    # resamples that tie copies of the minimum: the search runs toward a
    # heavy tail without converging, or collapses the scale
    assert batched.failures == {"degenerate_sample": 1, "not_converged": 6}
    assert batched.failed == 7
    _assert_reports_equal(batched, loop)


@pytest.mark.parametrize("model", ["gev", "gumbel"])
def test_bootstrap_and_jackknife_match_the_loop(model):
    x = bm.sample(bm.GevParams(79.0, 21.0, 0.05), 60, seed=2).values
    refit = Refit(model)
    _assert_reports_equal(bootstrap(x, refit, b=150, seed=7), reference.bootstrap(x, refit, b=150, seed=7))
    _assert_reports_equal(jackknife(x, refit), reference.jackknife(x, refit))


class _RowsMean:
    """Mean statistic with a batched path; rows whose first value is 9 fail."""

    def __call__(self, v):
        if v[0] == 9.0:
            raise RuntimeError("bad resample")
        return np.mean(v)

    def rows(self, X, failures):
        ok = X[:, 0] != 9.0
        if not ok.all():
            failures["RuntimeError"] += int(np.count_nonzero(~ok))
        return X.mean(axis=1)[:, None], ok


def test_rows_failures_are_redrawn_like_the_loop():
    x = np.arange(10.0)
    stat = _RowsMean()
    batched = bootstrap(x, stat, b=100, seed=9)
    loop = reference.bootstrap(x, stat, b=100, seed=9)
    assert batched.failed > 0 and batched.failures == {"RuntimeError": batched.failed}
    _assert_reports_equal(batched, loop)


def test_rows_failure_budget():
    class AlwaysFails(_RowsMean):
        def rows(self, X, failures):
            failures["RuntimeError"] += X.shape[0]
            return X.mean(axis=1)[:, None], np.zeros(X.shape[0], dtype=bool)

    # the budget of 5 breaks at the 6th failure, as in the loop
    with pytest.raises(bm.ResamplingError, match=r"^6 of 50 .*limit 10%"):
        bootstrap(np.arange(10.0), AlwaysFails(), b=50, seed=0)
    with pytest.raises(bm.ResamplingError, match="without observation 0"):
        jackknife(np.arange(10.0), AlwaysFails())


def test_program_errors_in_rows_propagate():
    class Broken(_RowsMean):
        def rows(self, X, failures):
            raise KeyError("bug")

    with pytest.raises(KeyError):
        bootstrap(np.arange(10.0), Broken(), b=20, seed=0)
    # the jackknife has no redraw: any failed refit aborts it, as in the loop
    with pytest.raises(bm.ResamplingError, match="without observation 0 failed: KeyError") as err:
        jackknife(np.arange(10.0), Broken())
    assert isinstance(err.value.__cause__, KeyError)


class _RaisesTogether(_RowsMean):
    """A rows statistic that raises for a batch of more than one row, and for no row alone."""

    def rows(self, X, failures):
        if X.shape[0] > 1:
            raise KeyError("bug")
        return super().rows(X, failures)


def test_a_jackknife_batch_that_raises_only_as_a_batch_is_named():
    # no row raises alone: the error names the batch that raised by its first row
    with pytest.raises(bm.ResamplingError, match=r"batch from observation 0 failed: KeyError") as err:
        jackknife(np.arange(10.0), _RaisesTogether())
    assert isinstance(err.value.__cause__, KeyError)


def test_a_batch_error_of_the_jackknife_does_not_depend_on_the_processes(monkeypatch):
    messages = []
    for processes in (1, 2):
        monkeypatch.setattr(resampling._fork, "processes", lambda work, min_share, n=processes: n)
        with pytest.raises(bm.ResamplingError) as err:
            jackknife(np.arange(300.0), _RaisesTogether())
        messages.append(str(err.value))
    assert len(resampling._loo_spans(300, 1)) == 1 and len(resampling._loo_spans(300, 2)) == 2
    assert messages[0] == messages[1] == "jackknife batch from observation 0 failed: KeyError('bug')"


def test_failures_by_cause_of_a_plain_statistic_match_the_loop():
    def flaky(v):
        if v[0] == 9.0 and v[1] >= 7.0:
            raise ConvergenceError("no", "penalized_optimum")
        if v[0] == 8.0 and v[1] >= 7.0:
            raise RuntimeError("other")
        return np.mean(v)

    rep = bootstrap(np.arange(10.0), flaky, b=200, seed=3)
    assert set(rep.failures) == {"penalized_optimum", "RuntimeError"}
    assert sum(rep.failures.values()) == rep.failed
    _assert_reports_equal(rep, reference.bootstrap(np.arange(10.0), flaky, b=200, seed=3))


def test_jackknife_rows_below_the_fit_minimum_is_a_resampling_error():
    # n=10 fits, but its leave-one-out rows of 9 are below MIN_FIT_SIZE
    x = bm.sample(bm.GevParams(0.0, 1.0, 0.0), 10, seed=1).values
    with pytest.raises(bm.ResamplingError, match="at least 10") as err:
        jackknife(x, Refit("gumbel"))
    assert isinstance(err.value.__cause__, ValueError)


def test_cli_jackknife_below_the_fit_minimum_exits_4(tmp_path, capsys):
    path = tmp_path / "ten.txt"
    x = bm.sample(bm.GevParams(79.0, 21.0, 0.1), 10, seed=3).values
    path.write_text("Year data\n" + "".join(f"{2000 + i} {v:.6f}\n" for i, v in enumerate(x)))
    for argv in (["resample", str(path)], ["rlevel", str(path), "--bias-correct", "on"],
                 ["report", str(path), "--out-dir", str(tmp_path / "out")]):
        assert main(argv) == 4, argv
        assert "jackknife refit without observation 0 failed: ValueError" in capsys.readouterr().err


class _RowsForbidden(_RowsMean):
    def rows(self, X, failures):
        raise AssertionError("rows called")


def test_long_samples_go_through_rows():
    # every sample size is batched: the AssertionError shows that rows ran
    n = 10_001
    with pytest.raises(AssertionError, match="rows called"):
        bootstrap(np.arange(float(n)), _RowsForbidden(), b=3, seed=0)
    with pytest.raises(bm.ResamplingError, match="rows called"):
        jackknife(np.arange(n + 1.0), _RowsForbidden())  # leave-one-out rows of n values
    with pytest.raises(AssertionError, match="rows called"):
        bootstrap_jackknife(np.arange(float(n)), _RowsForbidden(), b=3, seed=0)


def test_bootstrap_jackknife_of_a_long_sample_is_the_two_calls():
    x = bm.sample(bm.GevParams(79.0, 21.0, 0.1), 10_002, seed=7).values
    boot, jack = bootstrap_jackknife(x, _RowsMean(), b=8, seed=3)
    _assert_reports_equal(boot, bootstrap(x, _RowsMean(), b=8, seed=3))
    _assert_reports_equal(jack, jackknife(x, _RowsMean()))


class _ResamplesRaise:
    """Mean statistic that raises TypeError on a sample that is not sorted:
    every resample of ``np.arange(n)``, but not the sample itself."""

    def __call__(self, v):
        if (np.diff(v) < 0).any():
            raise TypeError("not sorted")
        return np.mean(v)

    def rows(self, X, failures):
        if (np.diff(X, axis=1) < 0).any():
            raise TypeError("not sorted")
        return X.mean(axis=1)[:, None], np.ones(X.shape[0], dtype=bool)


@pytest.mark.parametrize("n", [10_000, 10_001])
def test_program_errors_propagate_at_every_size(n):
    with pytest.raises(TypeError, match="not sorted"):
        bootstrap(np.arange(float(n)), _ResamplesRaise(), b=20, seed=0)
