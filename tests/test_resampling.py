import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockmax as bm
import reference_resampling as reference
from blockmax import ResamplingError, Verdict, _fork, bootstrap, jackknife, resampling, rmse, rmse_approx, screen
from blockmax.inference import ConvergenceError
from blockmax.resampling import bootstrap_jackknife


class TestBootstrap:
    def test_mean_is_unbiased_within_noise(self):
        x = bm.sample(bm.GevParams(10, 2, 0), 60, seed=3).values
        rep = bootstrap(x, np.mean, b=10_000, seed=1)
        # the bootstrap mean of the mean equals the sample mean in expectation
        assert abs(rep.bias[0]) <= 3.0 * rep.se[0] / math.sqrt(10_000)

    def test_enumeration_oracle_n3(self):
        # exhaustive oracle: all 27 equally likely resamples of {1,2,3}
        x = np.array([1.0, 2.0, 3.0])
        means = [np.mean(x[list(t)]) for t in itertools.product(range(3), repeat=3)]
        exact_se = np.std(means)  # population SD over the 27 resamples
        assert exact_se == pytest.approx(math.sqrt(2.0 / 9.0), abs=1e-12)
        rep = bootstrap(x, np.mean, b=20_000, seed=4)
        assert rep.se[0] == pytest.approx(exact_se, rel=0.03)

    def test_deterministic_in_seed(self):
        x = bm.sample(bm.GevParams(0, 1, 0), 40, seed=8).values
        a = bootstrap(x, np.mean, b=200, seed=5)
        b = bootstrap(x, np.mean, b=200, seed=5)
        assert np.array_equal(a.bias, b.bias) and np.array_equal(a.se, b.se)
        c = bootstrap(x, np.mean, b=200, seed=6)
        assert not np.array_equal(a.bias, c.bias)

    def test_corrected_matches_two_estimate_identity(self):
        x = np.array([1.0, 4.0, 2.0, 8.0, 5.0])
        rep = bootstrap(x, np.mean, b=500, seed=2)
        replicate_mean = rep.estimate[0] + rep.bias[0]
        assert rep.corrected[0] == pytest.approx(2 * rep.estimate[0] - replicate_mean, abs=1e-12)

    def test_failure_budget(self):
        def flaky(v):
            # fine on the original ordered sample, fails on any resample
            if not np.all(np.diff(v) > 0):
                raise RuntimeError("refit failed")
            return np.mean(v)

        with pytest.raises(ResamplingError, match="limit 10%"):
            bootstrap(np.arange(10.0), flaky, b=50, seed=0)
        # the budget of 5 breaks at the 6th failure, and the round ends first
        with pytest.raises(ResamplingError, match=r"^6 of 50 .*limit 10%\); causes: RuntimeError$"):
            bootstrap(np.arange(10.0), flaky, b=50, seed=0)

    def test_occasional_failures_are_redrawn(self):
        def sometimes(v):
            if v[0] == 9.0:  # x[0] is 0 in the original sample, so only resamples trip
                raise RuntimeError("bad resample")
            return np.mean(v)

        x = np.arange(10.0)
        rep = bootstrap(x, sometimes, b=100, seed=9)
        assert rep.failed > 0
        assert np.isfinite(rep.bias[0])

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bootstrap(np.arange(5.0), np.mean, b=1, seed=0)
        with pytest.raises(ValueError):
            bootstrap(np.arange(5.0), np.mean, b=10, seed=-1)

    def test_vector_statistic_labels(self):
        x = np.arange(12.0)
        rep = bootstrap(x, lambda v: np.array([v.mean(), v.std()]), b=50, seed=1,
                        labels=("m", "s"))
        assert rep.labels == ("m", "s") and rep.bias.shape == (2,)
        with pytest.raises(ValueError):
            bootstrap(x, np.mean, b=10, seed=0, labels=("a", "b"))


class TestJackknife:
    def test_mean_identities(self):
        x = bm.sample(bm.GevParams(5, 3, 0), 37, seed=12).values
        rep = jackknife(x, np.mean)
        assert abs(rep.bias[0]) <= 1e-12 * max(1.0, abs(rep.estimate[0]))
        exact = x.std(ddof=1) / math.sqrt(x.size)
        assert rep.se[0] == pytest.approx(exact, rel=1e-12)

    def test_squared_mean_hand_oracle(self):
        # leave-one-out values of xbar^2 on {1,2,3}: 6.25, 4, 2.25
        rep = jackknife(np.array([1.0, 2.0, 3.0]), lambda v: np.mean(v) ** 2)
        assert rep.bias[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rep.corrected[0] == pytest.approx(4.0 - 1.0 / 3.0, abs=1e-12)

    @given(st.floats(-5, 5), st.floats(-10, 10), st.integers(0, 5000))
    @settings(max_examples=40)
    def test_affine_statistic_identities(self, a, b, seed):
        x = bm.sample(bm.GevParams(0, 1, 0), 25, seed=seed).values
        rep = jackknife(x, lambda v: a * np.mean(v) + b)
        scale = max(1.0, abs(rep.estimate[0]))
        assert abs(rep.bias[0]) <= 1e-11 * scale
        expected_se = abs(a) * x.std(ddof=1) / math.sqrt(x.size)
        assert rep.se[0] == pytest.approx(expected_se, abs=1e-11 * max(1.0, expected_se))

    def test_failing_statistic_aborts(self):
        def fragile(v):
            if v.size == 9:
                raise RuntimeError("cannot refit")
            return np.mean(v)

        with pytest.raises(ResamplingError,
                           match=r"^jackknife refit without observation 0 failed; causes: RuntimeError$"):
            jackknife(np.arange(10.0), fragile)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            jackknife(np.array([1.0, 2.0]), np.mean)


def _pair(v):
    return np.array([v.mean(), v.std()])


def _flaky(v):
    """The mean, failing where the first values tie: on some resamples, never
    on a sample of distinct values."""
    if v[0] == v[1]:
        raise RuntimeError("tied")
    if v[1] == v[2]:
        raise ConvergenceError("tied", "not_converged")
    return np.mean(v)


def _same_report(a, b):
    for name in ("estimate", "bias", "se", "ratio", "rmse", "corrected"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.method, a.labels, a.b, a.seed, a.failed, a.failures) == (
        b.method, b.labels, b.b, b.seed, b.failed, b.failures)


DISTINCT = bm.sample(bm.GevParams(79.0, 21.0, 0.1), 100, seed=2).values


class TestPlainStatistics:
    """A statistic without ``rows`` takes the batched rounds, and they give
    the reports of the one-at-a-time loop (``reference_resampling``)."""

    def test_every_replicate_is_drawn_in_batches(self, monkeypatch):
        monkeypatch.setattr(_fork, "cpus", lambda: 1)  # the spy sees every batch
        drawn, draws = [], resampling._draws

        def spy(seed, chunk, n):
            drawn.extend(chunk)
            return draws(seed, chunk, n)

        monkeypatch.setattr(resampling, "_draws", spy)
        rep = bootstrap(DISTINCT, np.mean, b=300, seed=1)
        assert sorted(drawn) == [(i, 0) for i in range(300)]
        drawn.clear()
        rep = bootstrap(DISTINCT, _flaky, b=300, seed=1)
        assert rep.failed > 0 and len(drawn) == 300 + rep.failed

    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("statistic", [np.mean, _pair, _flaky])
    def test_reports_match_the_loop(self, monkeypatch, statistic, processes):
        monkeypatch.setattr(_fork, "processes", lambda work, min_share: processes)
        boot = bootstrap(DISTINCT, statistic, b=200, seed=3)
        _same_report(boot, reference.bootstrap(DISTINCT, statistic, b=200, seed=3))
        _same_report(jackknife(DISTINCT, statistic), reference.jackknife(DISTINCT, statistic))
        for a, b in zip(bootstrap_jackknife(DISTINCT, statistic, b=200, seed=3),
                        reference.bootstrap_jackknife(DISTINCT, statistic, b=200, seed=3)):
            _same_report(a, b)
        if statistic is _flaky:
            assert boot.failures.keys() == {"RuntimeError", "not_converged"}

    @pytest.mark.parametrize("processes", [1, 2])
    def test_errors_do_not_depend_on_the_processes(self, monkeypatch, processes):
        monkeypatch.setattr(_fork, "processes", lambda work, min_share: processes)
        with pytest.raises(ResamplingError, match=r"^6 of 50 .*causes: RuntimeError, not_converged$"):
            bootstrap(np.arange(3.0), _flaky, b=50, seed=0)
        # without observation 1 the first values tie, without 2 the next ones
        with pytest.raises(ResamplingError, match=r"^jackknife refit without observation 1 failed; "
                                                  r"causes: RuntimeError, not_converged$"):
            jackknife(np.array([1.0, 2.0, 1.0, 2.0]), _flaky)

    def test_a_statistic_that_pickles_may_run_in_the_worker(self):
        x = bm.sample(bm.GevParams(79.0, 21.0, 0.1), 129, seed=1).values
        values = 999 * x.size
        split = bootstrap_jackknife(x, np.mean, b=999, seed=4)
        assert len(_fork._workers) == _fork.processes(values, resampling.MIN_SHARE_VALUES) - 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_fork, "cpus", lambda: 1)
            alone = bootstrap_jackknife(x, np.mean, b=999, seed=4)
        for a, b in zip(split, alone):
            _same_report(a, b)
        _fork.close()
        bootstrap(x, lambda v: np.mean(v), b=999, seed=4)
        assert not _fork._workers  # a lambda does not pickle: it runs here

    def test_the_joint_call_evaluates_the_full_sample_once(self):
        full = []

        def mean(v):
            full.append(v is DISTINCT)
            return np.mean(v)

        bootstrap_jackknife(DISTINCT, mean, b=20, seed=0)
        assert sum(full) == 1 and len(full) == 1 + 20 + DISTINCT.size

    def test_a_result_of_the_wrong_size_fails_the_replicate(self):
        def grows(v):
            return np.full(1 + (v[0] == v.max()), np.mean(v))

        x = np.arange(20.0)
        rep = bootstrap(x, grows, b=100, seed=2)
        assert rep.failed > 0 and rep.failures == {"ValueError": rep.failed}
        _same_report(rep, reference.bootstrap(x, grows, b=100, seed=2))


class TestRmseAndScreen:
    def test_zero_bias(self):
        assert rmse(0.0, 2.0) == 2.0

    def test_quarter_ratio(self):
        # at |bias|/se = 0.25 the inflation is about 3.1%
        assert rmse(0.5, 2.0) == pytest.approx(2.0 * math.sqrt(1.0625), abs=1e-12)
        assert rmse(0.5, 2.0) / 2.0 == pytest.approx(1.0307764, abs=1e-6)
        assert rmse_approx(0.5, 2.0) / 2.0 == pytest.approx(1.03125, abs=1e-12)

    def test_three_four_five(self):
        assert rmse(3.0, 4.0) == pytest.approx(5.0, abs=1e-12)

    def test_monotone_in_bias(self):
        values = [rmse(b, 1.5) for b in (0.0, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_se(self):
        with pytest.raises(ValueError):
            rmse(1.0, 0.0)
        with pytest.raises(ValueError):
            rmse_approx(1.0, -1.0)

    def test_report_invariants(self):
        x = bm.sample(bm.GevParams(3, 2, 0), 30, seed=2).values
        rep = bootstrap(x, lambda v: np.array([v.mean(), v.var()]), b=300, seed=3)
        assert np.allclose(rep.ratio, np.abs(rep.bias) / rep.se)
        assert np.all(rep.rmse >= rep.se)
        assert np.allclose(rep.corrected, rep.estimate - rep.bias)

    def test_screen_thresholds(self):
        x = np.arange(20.0)
        rep = bootstrap(x, np.mean, b=100, seed=0)
        forced = bm.ResamplingReport(
            method="bootstrap", labels=("a", "b", "c"),
            estimate=np.zeros(3), bias=np.array([0.0577, 0.3177, 1.5]),
            se=np.ones(3), ratio=np.array([0.0577, 0.3177, 1.5]),
            rmse=np.ones(3), corrected=np.zeros(3),
        )
        assert screen(forced) == (Verdict.IGNORE, Verdict.CORRECT, Verdict.SUSPECT)
        assert all(v in Verdict for v in screen(rep))

    def test_published_sigma_correction(self):
        # ratio 0.3177 -> correct; corrected scale 21.85684 - 0.7436685
        corrected = 21.85684 - 0.7436685
        assert corrected == pytest.approx(21.11317, abs=5e-6)
