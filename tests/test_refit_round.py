"""The resampling stage's kernel passes and its one forked round.

The row kernels over a whole pass (blocks, gathered rows, the series lanes
together, the Gumbel lanes routed once) against one-lane calls, bit for bit,
and the memory of a wide pass; Newton trials on the derivative pass where a
pass is wide (the gate of ``inference._newton_rows``) against the gate
turned off, for fits, refits and profiles; and the jackknife riding in the
bootstrap's first round against the two methods run apart.
"""

import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import blockmax as bm
from blockmax import _fork, inference, profiles, resampling, workflow
from blockmax.inference import Refit, _fit_rows, fit_gev, profile
from blockmax.likelihood import (
    gev_derivatives_rows,
    gev_nllh_rows,
    gumbel_derivatives_rows,
    gumbel_nllh_rows,
)
from blockmax.resampling import ResamplingError, bootstrap, bootstrap_jackknife, jackknife

LABELS = ("mu", "sigma", "xi")
STANDARD = bm.sample(bm.GevParams(79.0, 21.0, 0.0), 129, seed=101).values
GATE_OFF = 10**12  # no pass covers this many values


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _resamples(x, lanes, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return x[rng.integers(0, x.size, size=(lanes, x.size))]


# -- the row kernels over a pass --------------------------------------------------


def _pass(lanes, seed):
    """A pass of ``lanes`` lanes on 300 rows at n=129, each lane on a random row,
    a quarter each closed-form, series, Gumbel-routed and invalid."""
    rng = np.random.Generator(np.random.PCG64(seed))
    X = _resamples(STANDARD, 300, seed)
    rows = rng.integers(0, X.shape[0], lanes)
    mu = rng.uniform(70.0, 85.0, lanes)
    sigma = rng.uniform(15.0, 25.0, lanes)
    kind = rng.integers(0, 4, lanes)
    xi = rng.uniform(-0.3, 0.3, lanes)
    xi[kind == 1] = rng.choice([-1.0, 1.0], np.count_nonzero(kind == 1)) * rng.uniform(
        4e-4, 6e-4, np.count_nonzero(kind == 1))
    xi[kind == 2] = rng.uniform(-5e-10, 5e-10, np.count_nonzero(kind == 2))
    sigma[kind == 3] = np.where(rng.random(np.count_nonzero(kind == 3)) < 0.5, -1.0, 0.01)
    return X, rows, mu, sigma, xi


def test_a_wide_pass_matches_its_one_lane_calls():
    X, rows, mu, sigma, xi = _pass(1000, 0)
    cases = ((gev_derivatives_rows, gev_nllh_rows, (mu, sigma, xi)),
             (gumbel_derivatives_rows, gumbel_nllh_rows, (mu, sigma)))
    for derivatives, row_kernel, params in cases:
        value, valid, score, info = derivatives(X, *params, rows=rows)
        rows_value, rows_valid = row_kernel(X, *params, rows=rows)
        assert _bits(value) == _bits(rows_value) and np.array_equal(valid, rows_valid)
        assert 0 < np.count_nonzero(valid) < valid.size
        for i, r in enumerate(rows):
            one = [p[i:i + 1] for p in params]
            d_value, d_valid, d_score, d_info = derivatives(X[r:r + 1], *one)
            v_value, v_valid = row_kernel(X[r:r + 1], *one)
            assert _bits(d_value) == _bits(value[i]) == _bits(v_value), i
            assert d_valid[0] == valid[i] == v_valid[0], i
            if valid[i]:
                assert _bits(d_score) == _bits(score[i]) and _bits(d_info) == _bits(info[i]), i


def _peak(lanes):
    X, rows, mu, sigma, _ = _pass(lanes, 1)
    xi = np.full(lanes, 5e-4)  # every lane on the series
    tracemalloc.start()
    try:
        gev_derivatives_rows(X, mu, sigma, xi, rows=rows)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_series_lanes_of_a_wide_pass_run_in_blocks():
    assert _peak(1000) <= 1.25 * _peak(254)


# -- the gate: trials on the derivative pass ------------------------------------------


def _counting(kernel, lanes):
    """``kernel``, adding the lanes of each call to the list ``lanes``."""

    def counted(X, *params, rows=None):
        lanes.append(params[0].size)
        return kernel(X, *params, rows=rows)

    return counted


def test_fit_rows_in_blocks_match_the_one_row_fits():
    X = _resamples(STANDARD, 300, 2)  # 300 x 129 values: three blocks of rows
    calls, values = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "gev_derivatives_rows", _counting(inference.gev_derivatives_rows, calls))
        mp.setattr(inference, "gev_nllh_rows", _counting(inference.gev_nllh_rows, values))
        theta, nllh, cause, opts, _ = _fit_rows(X, "gev")
    assert (cause == "").all()
    values.pop()  # the nllh of the data at the estimates
    evaluations = 0
    for r in range(X.shape[0]):
        one = _fit_rows(X[r:r + 1], "gev")
        assert _bits(one[0]) == _bits(theta[r]) and _bits(one[1]) == _bits(nllh[r]), r
        assert one[3][0].iterations == opts[r].iterations, r
        evaluations += one[3][0].evaluations
    # the wide trials were derivative passes, which spared the value passes of the lanes they served
    assert sum(opt.evaluations for opt in opts) < evaluations
    assert sum(calls) == sum(opt.evaluations for opt in opts) - sum(values)


def test_refits_count_iterations_with_the_gate_on_and_off():
    fit = fit_gev(STANDARD)
    X = _resamples(STANDARD, 400, 3)
    on = Refit("gev", start=fit.theta)
    theta_on, ok_on = on.rows(X)
    off = Refit("gev", start=fit.theta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "BLOCK_ELEMENTS", GATE_OFF)
        theta_off, ok_off = off.rows(X)
    assert _bits(theta_on) == _bits(theta_off) and np.array_equal(ok_on, ok_off)
    assert on.counts == off.counts and on.counts["steps"] > X.shape[0]


@pytest.mark.parametrize("which, p", [("xi", None), ("return_level", 0.01)])
def test_wide_profiles_match_with_the_gate_off(which, p):
    values = bm.sample(bm.GevParams(79.0, 21.0, 0.1), 2000, seed=4).values
    fit = fit_gev(values)

    def run(mp):
        lanes = []
        mp.setattr(profiles, "gev_nllh_rows", _counting(profiles.gev_nllh_rows, lanes))
        return profile(values, "gev", which=which, p=p, fit=fit), sum(lanes)

    with pytest.MonkeyPatch.context() as mp:
        on, value_lanes_on = run(mp)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "BLOCK_ELEMENTS", GATE_OFF)
        off, value_lanes_off = run(mp)
    assert value_lanes_on < value_lanes_off  # accepted wide trials took no value pass
    assert _bits(on.grid) == _bits(off.grid) and _bits(on.lp) == _bits(off.lp)
    assert _bits(on.ci) == _bits(off.ci)
    assert on.counts == off.counts


# -- the jackknife in the bootstrap's first round ------------------------------------


def _same_report(a, b):
    for name in ("estimate", "bias", "se", "ratio", "rmse", "corrected"):
        assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name
    assert (a.method, a.labels, a.b, a.seed, a.failed, a.failures) == (
        b.method, b.labels, b.b, b.seed, b.failed, b.failures)


def _apart(values, fit, b, seed=4):
    """The resampling sections of separate bootstrap() and jackknife() calls."""
    stat = Refit(fit.model, start=fit.theta)
    return {"bootstrap": workflow._report_dict(bootstrap(values, stat, b=b, seed=seed, labels=LABELS)),
            "jackknife": workflow._report_dict(jackknife(values, stat, labels=LABELS))}


@pytest.fixture(params=["one process", "two processes"])
def processes(request, monkeypatch):
    if request.param == "one process":
        monkeypatch.setattr(_fork, "processes", lambda work, min_share: 1)
    else:
        monkeypatch.setattr(_fork, "cpus", lambda: 2)
        monkeypatch.setattr(resampling, "MIN_SHARE_VALUES", 1)
        if _fork.processes(2, 1) < 2:
            pytest.skip("the fork rule allows one process here")
    return request.param


def test_resample_matches_the_two_methods_apart(processes):
    fit = fit_gev(STANDARD)
    joint = workflow.resample(STANDARD, fit, boot_b=999, seed=4)
    assert json.dumps(joint) == json.dumps(_apart(STANDARD, fit, 999))


class _Shapes:
    """A mean statistic that records the rows of each ``rows`` call made here."""

    def __init__(self):
        self.lanes = []

    def __call__(self, v):
        return np.mean(v)

    def rows(self, X, failures):
        self.lanes.append(X.shape)
        return X.mean(axis=1)[:, None], np.ones(X.shape[0], dtype=bool)


def test_each_process_gets_a_share_of_both_methods(processes):
    stat = _Shapes()
    boot, jack = bootstrap_jackknife(STANDARD, stat, b=999, seed=0)
    if processes == "one process":
        assert stat.lanes == [(500, 129), (499, 129), (129, 128)]
    else:
        assert stat.lanes == [(500, 129), (65, 128)]
    _same_report(boot, bootstrap(STANDARD, _Shapes(), b=999, seed=0))
    _same_report(jack, jackknife(STANDARD, _Shapes()))


def test_a_first_round_with_failures_still_redraws(processes):
    # n=15, xi=1: resamples with a tied minimum fail in the first round
    values = bm.sample(bm.GevParams(0.0, 1.0, 1.0), 15, seed=1).values
    fit = fit_gev(values)
    joint = workflow.resample(values, fit, boot_b=60, seed=4)
    assert joint["bootstrap"]["failed"] > 0
    assert json.dumps(joint) == json.dumps(_apart(values, fit, 60))


class _Failing(_Shapes):
    """Bootstrap rows starting at 8 or above fail; so does the jackknife row
    without observation 3, and with ``raises`` every jackknife rows call."""

    def __init__(self, raises=False):
        super().__init__()
        self.raises = raises

    def rows(self, X, failures):
        if X.shape[1] == 9:  # a leave-one-out batch of np.arange(10.0)
            if self.raises:
                raise RuntimeError("cannot refit")
            ok = (X == 3.0).any(axis=1)
            failures["lost_3"] += int(np.count_nonzero(~ok))
            return X.mean(axis=1)[:, None], ok
        ok = X[:, 0] < 8.0
        failures["eight"] += int(np.count_nonzero(~ok))
        return X.mean(axis=1)[:, None], ok


def _message(fn):
    with pytest.raises(ResamplingError) as err:
        fn()
    return str(err.value)


def test_the_bootstrap_budget_error_comes_before_the_jackknife_error(processes):
    values = np.arange(10.0)
    for raises in (False, True):
        message = _message(lambda: bootstrap_jackknife(values, _Failing(raises), b=60, seed=2))
        assert message == _message(lambda: bootstrap(values, _Failing(raises), b=60, seed=2))
        assert message.startswith("7 of 60 bootstrap replicates failed")


class _FailingJackknife(_Failing):
    def rows(self, X, failures):
        if X.shape[1] == 9:
            return super().rows(X, failures)
        return X.mean(axis=1)[:, None], np.ones(X.shape[0], dtype=bool)


@pytest.mark.parametrize("raises", [False, True])
def test_a_failed_jackknife_raises_its_own_error_after_the_bootstrap(processes, raises):
    values = np.arange(10.0)
    message = _message(lambda: bootstrap_jackknife(values, _FailingJackknife(raises), b=60, seed=2))
    assert message == _message(lambda: jackknife(values, _FailingJackknife(raises)))
    assert message.startswith("jackknife refit")


class _CountedJackknife(_FailingJackknife):
    """Counts its leave-one-out ``rows`` calls in ``counts``, which a worker sends back."""

    def __init__(self, raises):
        super().__init__(raises)
        self.counts = Counter()

    def rows(self, X, failures):
        if X.shape[1] == 9:
            self.counts["loo_calls"] += 1
        return super().rows(X, failures)


@pytest.mark.parametrize("raises", [False, True])
def test_a_failed_jackknife_runs_each_batch_once(processes, raises):
    values = np.arange(10.0)
    stat = _CountedJackknife(raises)
    _message(lambda: bootstrap_jackknife(values, stat, b=60, seed=2))
    batches = resampling._loo_spans(10, 1 if processes == "one process" else 2)
    # no batch is run again for the error; a batch whose rows call raised is
    # run again one row at a time up to the first row that raises alone,
    # here its first
    assert stat.counts["loo_calls"] == len(batches) * (2 if raises else 1)
