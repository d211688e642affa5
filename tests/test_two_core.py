"""Refits split over forked processes against the serial run, bit for bit.

``serial`` forces every split back into one process by making the CPU-count
probe report one CPU.  ``small_floor`` lowers the work a process must get
(``resampling.MIN_SHARE_VALUES``) so that the small inputs here fork.  Tests
that need a child process skip where the fork rule allows only one (one CPU,
another thread, no ``fork``).
"""

import os
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import blockmax as bm
from blockmax import _fork, resampling
from blockmax.cli import main
from blockmax.inference import Refit, fit_gev, fit_gumbel, profile
from blockmax.resampling import ResamplingError, bootstrap, jackknife

SRC = Path(__file__).resolve().parent.parent / "src"
STANDARD = bm.sample(bm.GevParams(79.0, 21.0, 0.1), 129, seed=1).values
LABELS = ("mu", "sigma", "xi")


@pytest.fixture
def serial(monkeypatch):
    monkeypatch.setattr(_fork, "cpus", lambda: 1)


@pytest.fixture
def small_floor(monkeypatch):
    monkeypatch.setattr(resampling, "MIN_SHARE_VALUES", 1)


@pytest.fixture
def forking(small_floor):
    if _fork.processes(2, 1) < 2:
        pytest.skip("the fork rule allows one process here")


def _serially(fn):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_fork, "cpus", lambda: 1)
        return fn()


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _same_report(a, b):
    for name in ("estimate", "bias", "se", "ratio", "rmse", "corrected"):
        assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name
    assert (a.method, a.labels, a.b, a.seed, a.failed, a.failures) == (
        b.method, b.labels, b.b, b.seed, b.failed, b.failures
    )


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -- parity ----------------------------------------------------------------------


@pytest.mark.parametrize("model", ["gev", "gumbel"])
def test_bootstrap_and_jackknife_match_the_serial_run(model, small_floor):
    def run():
        labels = LABELS if model == "gev" else LABELS[:2]
        return (bootstrap(STANDARD, Refit(model), b=400, seed=4, labels=labels),
                jackknife(STANDARD, Refit(model)))

    for split, alone in zip(run(), _serially(run)):
        _same_report(split, alone)
    _no_children_left()


def test_bootstrap_redraws_match_the_serial_run(small_floor):
    # n=12, xi=-0.8: failed replicates go to a second and third round
    x = bm.sample(bm.GevParams(0.0, 1.0, -0.8), 12, seed=5).values
    split = bootstrap(x, Refit("gev"), b=100, seed=1, labels=LABELS)
    alone = _serially(lambda: bootstrap(x, Refit("gev"), b=100, seed=1, labels=LABELS))
    assert split.failures == {"degenerate_sample": 3, "not_converged": 3}
    _same_report(split, alone)


class _Flaky:
    """Mean statistic whose rows fail with a cause picked by their first value."""

    def __call__(self, v):
        return np.mean(v)

    def rows(self, X, failures):
        first = X[:, 0]
        for value, cause in ((9.0, "nine"), (8.0, "eight")):
            if (first == value).any():
                failures[cause] += int(np.count_nonzero(first == value))
        return X.mean(axis=1)[:, None], first < 8.0


def test_budget_break_message_matches_the_serial_run(small_floor):
    def run():
        with pytest.raises(ResamplingError) as err:
            bootstrap(np.arange(10.0), _Flaky(), b=60, seed=2)
        return str(err.value)

    message = run()
    assert message == _serially(run)
    assert message.startswith("7 of 60 bootstrap replicates failed (limit 10%); causes: eight, nine")


def test_jackknife_failures_match_the_serial_run(small_floor):
    values = np.arange(40.0)

    class FailsWithout30(_Flaky):  # the refit without observation 30 fails
        def rows(self, X, failures):
            ok = (X == 30.0).any(axis=1)
            if not ok.all():
                failures["lost_30"] += int(np.count_nonzero(~ok))
            return X.mean(axis=1)[:, None], ok

    def run():
        with pytest.raises(ResamplingError) as err:
            jackknife(values, FailsWithout30())
        return str(err.value)

    assert run() == _serially(run) == "jackknife refit without observation 30 failed; causes: lost_30"


def test_jackknife_of_ten_maxima_exits_4_as_in_the_serial_run(tmp_path, capsys):
    path = tmp_path / "ten.txt"
    x = bm.sample(bm.GevParams(79.0, 21.0, 0.1), 10, seed=3).values
    path.write_text("Year data\n" + "".join(f"{2000 + i} {v:.6f}\n" for i, v in enumerate(x)))
    argv = ["resample", str(path)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert _serially(lambda: main(argv)) == 4
    assert capsys.readouterr().err == err
    assert "jackknife refits without observations 0 to 9" in err


@pytest.mark.parametrize("kwargs", [
    dict(which="xi"),
    dict(which="return_level", p=0.01),
    dict(which="xi", tau=1e-5),  # expands the grid: low and high legs
    dict(which="xi", grid=np.linspace(-0.2, 0.45, 27)),
])
def test_profiles_match_the_serial_run(kwargs):
    fit = fit_gev(STANDARD)
    split = profile(STANDARD, "gev", fit=fit, **kwargs)
    alone = _serially(lambda: profile(STANDARD, "gev", fit=fit, **kwargs))
    assert _bits(split.grid) == _bits(alone.grid) and _bits(split.lp) == _bits(alone.lp)
    assert split.ci == alone.ci
    if kwargs.get("tau") == 1e-5:
        assert split.grid.size > 101


# -- children that fail ------------------------------------------------------------


class _InChild:
    """Mean statistic whose ``rows`` calls ``act`` when run outside the test process."""

    def __init__(self, act):
        self.parent = os.getpid()
        self.act = act

    def __call__(self, v):
        return np.mean(v)

    def rows(self, X, failures):
        if os.getpid() != self.parent:
            self.act()
        return X.mean(axis=1)[:, None], np.ones(X.shape[0], dtype=bool)


def test_a_child_that_dies_has_its_share_redone(forking):
    x = np.arange(40.0)
    died = _InChild(lambda: os._exit(3))
    _same_report(bootstrap(x, died, b=200, seed=1), _serially(lambda: bootstrap(x, died, b=200, seed=1)))
    _same_report(jackknife(x, died), _serially(lambda: jackknife(x, died)))
    _no_children_left()


def test_a_failed_fork_leaves_the_share_to_the_parent(forking, monkeypatch):
    def no_fork():
        raise BlockingIOError("fork refused")

    x = np.arange(40.0)
    alone = _serially(lambda: bootstrap(x, _Shapes(), b=200, seed=3))
    monkeypatch.setattr(os, "fork", no_fork)
    stat = _Shapes()
    _same_report(bootstrap(x, stat, b=200, seed=3), alone)
    assert stat.lanes == [100, 100]  # both halves ran here


def test_a_warning_in_a_child_reaches_the_parent(forking):
    def warn():
        warnings.warn("raised in the child", RuntimeWarning)

    with pytest.warns(RuntimeWarning, match="raised in the child"):
        bootstrap(np.arange(40.0), _InChild(warn), b=200, seed=1)


def test_a_program_error_in_a_child_surfaces_with_its_type(forking):
    values = np.arange(40.0)

    class LosesObservation30(_Flaky):  # only the refits of the second half lack 30
        def rows(self, X, failures):
            if not (X == 30.0).any(axis=1).all():
                raise KeyError("bug")
            return X.mean(axis=1)[:, None], np.ones(X.shape[0], dtype=bool)

    with pytest.raises(ResamplingError, match="without observations 20 to 39") as err:
        jackknife(values, LosesObservation30())
    assert isinstance(err.value.__cause__, KeyError)

    # the last replicate of the first round is in the child's share
    last = resampling._draw(5, 199, 0, values.size)

    class BreaksOnTheLastReplicate(_Flaky):
        def rows(self, X, failures):
            if (X == last).all(axis=1).any():
                raise KeyError("bug")
            return X.mean(axis=1)[:, None], np.ones(X.shape[0], dtype=bool)

    with pytest.raises(KeyError):
        bootstrap(values, BreaksOnTheLastReplicate(), b=200, seed=5)
    _no_children_left()


def test_an_error_in_the_parents_share_stops_the_children(forking):
    class SlowChild(_InChild):
        def rows(self, X, failures):
            if os.getpid() == self.parent:
                raise KeyError("bug")
            time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(KeyError):
        bootstrap(np.arange(40.0), SlowChild(None), b=200, seed=1)
    assert time.perf_counter() - start < 30
    _no_children_left()


def test_piped_report_output_is_not_duplicated(tmp_path):
    path = tmp_path / "series.txt"
    path.write_text("Year data\n" + "".join(f"{1900 + i} {v:.6f}\n" for i, v in enumerate(STANDARD)))
    script = ("import sys; print('started'); from blockmax.cli import main; "
              "sys.exit(main(sys.argv[1:]))")
    # B=999 is enough work to fork the bootstrap (MIN_SHARE_VALUES)
    argv = [sys.executable, "-c", script, "report", str(path), "--model", "gev",
            "--boot-B", "999", "--out-dir", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(**kwargs):
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300, **kwargs)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    out = run()
    assert out.count("started") == 1 and out.count("Model comparison") == 1
    if hasattr(os, "sched_setaffinity"):
        one_cpu = min(os.sched_getaffinity(0))
        assert run(preexec_fn=lambda: os.sched_setaffinity(0, {one_cpu})) == out


# -- batching and the fork rule ---------------------------------------------------


class _Shapes(_Flaky):
    def __init__(self):
        self.lanes = []

    def rows(self, X, failures):
        self.lanes.append(X.shape[0])
        return X.mean(axis=1)[:, None], np.ones(X.shape[0], dtype=bool)


def test_batches_are_balanced(serial):
    stat = _Shapes()
    assert (resampling._lanes(128), resampling._lanes(129)) == (512, 508)
    jackknife(STANDARD, stat)  # 129 rows at 512 lanes: one batch
    assert stat.lanes == [129]
    stat.lanes.clear()
    bootstrap(STANDARD, stat, b=999, seed=0)  # 999 rows at 508 lanes: two near-equal batches
    assert stat.lanes == [500, 499]
    # with two processes every process gets a batch, and B=999 still runs as two
    assert resampling._chunk_spans(999, 508, 2) == _fork.spans(999, 2) == [(0, 500), (500, 999)]


def test_the_standard_jackknife_stays_in_one_process(monkeypatch):
    monkeypatch.setattr(_fork, "cpus", lambda: 2)
    if _fork.processes(2, 1) == 1:
        pytest.skip("fork is unavailable or another thread runs here")
    stat = _Shapes()
    jackknife(STANDARD, stat)
    assert stat.lanes == [129]  # all of it here
    stat.lanes.clear()
    bootstrap(STANDARD, stat, b=999, seed=0)
    assert stat.lanes == [500]  # the other batch ran in a child
    _no_children_left()


def test_spans_cover_the_range_in_near_equal_pieces():
    for n in range(0, 40):
        for parts in range(1, 9):
            spans = _fork.spans(n, parts)
            assert len(spans) == parts and spans[0][0] == 0 and spans[-1][1] == n
            sizes = [b - a for a, b in spans]
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            assert max(sizes) - min(sizes) <= 1


def test_the_fork_rule(monkeypatch):
    monkeypatch.setattr(_fork, "cpus", lambda: 4)
    if _fork.processes(2, 1) == 1:
        pytest.skip("fork is unavailable or another thread runs here")
    assert _fork.processes(100, 8) == 4
    assert _fork.processes(20, 8) == 2  # every process gets at least 8 units
    assert _fork.processes(15, 8) == 1
    floor = resampling.MIN_SHARE_VALUES  # in resampled values, rows x n
    assert _fork.processes(129 * 128, floor) == 1  # the jackknife of n=129
    monkeypatch.setattr(_fork, "cpus", lambda: 2)
    assert _fork.processes(999 * 129, floor) == 2  # bootstrap B=999 at n=129
    monkeypatch.setattr(_fork, "cpus", lambda: 1)
    assert _fork.processes(100, 8) == 1
    monkeypatch.setattr(_fork, "cpus", lambda: 4)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _fork.processes(100, 8) == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_ordered_without_children_is_a_loop():
    assert list(_fork.ordered(lambda i: i * i, range(5))) == [0, 1, 4, 9, 16]
    assert list(_fork.ordered(lambda i: i * i, [], 2)) == []


# -- tie-dominated samples ------------------------------------------------------


TIED = np.r_[np.full(29, 5.0), 5.5]


@pytest.mark.parametrize("values", [TIED, 0.01 * TIED, 1e4 + 7.0 * TIED])
def test_a_collapsed_gev_scale_is_a_degenerate_sample(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the search overflows quietly on its way to sigma -> 0
        with pytest.raises(bm.DegenerateSampleError, match="collapsed") as err:
            fit_gev(values)
    assert err.value.cause == "degenerate_sample"
    failures = Counter()
    theta, ok = Refit("gev").rows(np.stack([values, STANDARD[:30]]), failures)
    assert ok.tolist() == [False, True] and failures == Counter(degenerate_sample=1)
    assert _bits(theta[1]) == _bits(Refit("gev")(STANDARD[:30]))
    assert fit_gumbel(values, compute_se=False).params.sigma > 0.0


def test_cli_fit_exits_2_on_a_tie_dominated_series(tmp_path, capsys):
    path = tmp_path / "tied.txt"
    path.write_text("Year data\n" + "".join(f"{1900 + i} {v}\n" for i, v in enumerate(TIED)))
    assert main(["fit", str(path), "--model", "gev"]) == 2
    assert "collapsed" in capsys.readouterr().err
