"""Refits split over forked processes against the serial run, bit for bit.

``serial`` forces every split back into one process by making the CPU-count
probe report one CPU.  ``small_floor`` lowers the work a process must get
(``resampling.MIN_SHARE_VALUES``) so that the small inputs here fork.  Tests
that need a worker process skip where the fork rule allows only one (one CPU,
another thread, no ``fork``).  The statistics sent to a worker are defined at
module level, so that they pickle: one that does not pickle runs here.
"""

import os
import pickle
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


def _no_children_after_close():
    """A worker outlives its round; ``_fork.close()`` ends it."""
    _fork.close()
    _no_children_left()


# -- parity ----------------------------------------------------------------------


@pytest.mark.parametrize("model", ["gev", "gumbel"])
def test_bootstrap_and_jackknife_match_the_serial_run(model, small_floor):
    def run():
        labels = LABELS if model == "gev" else LABELS[:2]
        return (bootstrap(STANDARD, Refit(model), b=400, seed=4, labels=labels),
                jackknife(STANDARD, Refit(model)))

    for split, alone in zip(run(), _serially(run)):
        _same_report(split, alone)
    _no_children_after_close()


def test_bootstrap_redraws_match_the_serial_run(small_floor):
    # n=12, xi=-0.8: failed replicates go to a second and third round
    x = bm.sample(bm.GevParams(0.0, 1.0, -0.8), 12, seed=5).values
    split = bootstrap(x, Refit("gev"), b=100, seed=1, labels=LABELS)
    alone = _serially(lambda: bootstrap(x, Refit("gev"), b=100, seed=1, labels=LABELS))
    assert split.failures == {"degenerate_sample": 1, "not_converged": 6}
    _same_report(split, alone)


def _with_replicates(run):
    """``(report, replicates)`` of the bootstrap that ``run()`` makes."""
    seen = []
    report = resampling._bootstrap_report

    def keep(labels, estimate, replicates, *rest):
        seen.append(replicates.copy())
        return report(labels, estimate, replicates, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resampling, "_bootstrap_report", keep)
        out = run()
    return out, seen[0]


@pytest.mark.parametrize("n, b", [(10_001, 8), (50_000, 4)])
def test_long_samples_match_the_loop_and_the_serial_run(n, b):
    # every process gets MIN_SHARE_VALUES: wherever two CPUs are free, the round splits
    assert b * n >= 2 * resampling.MIN_SHARE_VALUES
    x = bm.sample(bm.GevParams(79.0, 21.0, 0.1), n, seed=7).values
    refit = Refit("gev", start=fit_gev(x).theta)

    def run(statistic):
        return _with_replicates(lambda: bootstrap(x, statistic, b=b, seed=3, labels=LABELS))

    split, split_replicates = run(refit)
    assert len(_fork._workers) == _fork.processes(b * n, resampling.MIN_SHARE_VALUES) - 1
    for report, replicates in (_serially(lambda: run(refit)), run(lambda v: refit(v))):
        assert _bits(replicates) == _bits(split_replicates)
        _same_report(report, split)
    _no_children_after_close()


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


class _FailsWithout30(_Flaky):
    """The refit without observation 30 fails."""

    def rows(self, X, failures):
        ok = (X == 30.0).any(axis=1)
        if not ok.all():
            failures["lost_30"] += int(np.count_nonzero(~ok))
        return X.mean(axis=1)[:, None], ok


def test_jackknife_failures_match_the_serial_run(small_floor):
    values = np.arange(40.0)

    def run():
        with pytest.raises(ResamplingError) as err:
            jackknife(values, _FailsWithout30())
        return str(err.value)

    assert run() == _serially(run) == "jackknife refit without observation 30 failed; causes: lost_30"


class _AlwaysRaises(_Flaky):
    def rows(self, X, failures):
        raise KeyError("bug")


def test_a_raising_jackknife_names_the_same_observation_split_or_not():
    # n=300 splits on two CPUs at the default floor; the error is the loop's
    def run():
        with pytest.raises(ResamplingError) as err:
            jackknife(np.arange(300.0), _AlwaysRaises())
        assert isinstance(err.value.__cause__, KeyError)
        return str(err.value)

    assert run() == _serially(run) == "jackknife refit without observation 0 failed: KeyError('bug')"


def test_jackknife_of_ten_maxima_exits_4_as_in_the_serial_run(tmp_path, capsys):
    path = tmp_path / "ten.txt"
    x = bm.sample(bm.GevParams(79.0, 21.0, 0.1), 10, seed=3).values
    path.write_text("Year data\n" + "".join(f"{2000 + i} {v:.6f}\n" for i, v in enumerate(x)))
    argv = ["resample", str(path)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert _serially(lambda: main(argv)) == 4
    assert capsys.readouterr().err == err
    assert "jackknife refit without observation 0 failed: ValueError" in err


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


def _die():
    os._exit(3)


def _warn():
    warnings.warn("raised in the child", RuntimeWarning)


def test_a_child_that_dies_has_its_share_redone(forking):
    x = np.arange(40.0)
    died = _InChild(_die)
    _same_report(bootstrap(x, died, b=200, seed=1), _serially(lambda: bootstrap(x, died, b=200, seed=1)))
    _same_report(jackknife(x, died), _serially(lambda: jackknife(x, died)))
    _no_children_left()  # each dead worker was reaped


def test_a_failed_fork_leaves_the_share_to_the_parent(forking, monkeypatch):
    def no_fork():
        raise BlockingIOError("fork refused")

    _fork.close()  # no warm worker: the round must fork
    x = np.arange(40.0)
    alone = _serially(lambda: bootstrap(x, _Shapes(), b=200, seed=3))
    monkeypatch.setattr(os, "fork", no_fork)
    stat = _Shapes()
    _same_report(bootstrap(x, stat, b=200, seed=3), alone)
    assert stat.lanes == [100, 100]  # both halves ran here


def test_a_warning_in_a_child_reaches_the_parent(forking):
    with pytest.warns(RuntimeWarning, match="raised in the child"):
        bootstrap(np.arange(40.0), _InChild(_warn), b=200, seed=1)


class _LosesObservation30(_Flaky):
    """A rows call raises where a row lacks 30: the refit without observation 30
    of np.arange(40.0), which on two CPUs is in the child's share."""

    def rows(self, X, failures):
        if not (X == 30.0).any(axis=1).all():
            raise KeyError("bug")
        return X.mean(axis=1)[:, None], np.ones(X.shape[0], dtype=bool)


# the last replicate of the first round of B=200, seed 5 on np.arange(40.0): in the child's share
_LAST = resampling._draw(5, 199, 0, 40)


class _BreaksOnTheLastReplicate(_Flaky):
    def rows(self, X, failures):
        if (X == _LAST).all(axis=1).any():
            raise KeyError("bug")
        return X.mean(axis=1)[:, None], np.ones(X.shape[0], dtype=bool)


def test_a_program_error_in_a_child_surfaces_with_its_type(forking):
    values = np.arange(40.0)
    with pytest.raises(ResamplingError, match="without observation 30 failed") as err:
        jackknife(values, _LosesObservation30())
    assert isinstance(err.value.__cause__, KeyError)

    with pytest.raises(KeyError):
        bootstrap(values, _BreaksOnTheLastReplicate(), b=200, seed=5)
    _no_children_left()  # the worker that raised died, and was reaped


class _SlowChild(_InChild):
    def rows(self, X, failures):
        if os.getpid() == self.parent:
            raise KeyError("bug")
        time.sleep(60)


def test_an_error_in_the_parents_share_stops_the_children(forking):
    start = time.perf_counter()
    with pytest.raises(KeyError):
        bootstrap(np.arange(40.0), _SlowChild(None), b=200, seed=1)
    assert time.perf_counter() - start < 30
    _no_children_left()  # the worker was killed and reaped with its round


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


# -- the worker's life ------------------------------------------------------------


def test_a_worker_serves_every_split_round(forking):
    x = np.arange(40.0)
    alone = _serially(lambda: bootstrap(x, _Shapes(), b=200, seed=3))
    stat = _Shapes()
    _same_report(bootstrap(x, stat, b=200, seed=3), alone)
    (worker,) = _fork._workers
    _same_report(jackknife(x, stat), _serially(lambda: jackknife(x, _Shapes())))
    _same_report(bootstrap(x, stat, b=200, seed=3), alone)
    assert _fork._workers == [worker]
    assert stat.lanes == [100, 20, 100]  # the other halves ran in the worker
    _no_children_after_close()


@pytest.mark.parametrize("case", ["standard", "n=12, xi=-0.8"])
def test_refit_counts_are_those_of_the_serial_run(forking, case):
    if case == "standard":
        x, b = STANDARD, 999
        start = fit_gev(x).theta
    else:  # most rows fall back from Newton to the full fit, for more than one cause
        x, b = bm.sample(bm.GevParams(0.0, 1.0, -0.8), 12, seed=5).values, 100
        start = [0.1, 0.9, -0.3]

    def run():
        stat = Refit("gev", start=start)
        if case == "standard":
            resampling.bootstrap_jackknife(x, stat, b=b, seed=1, labels=LABELS)
        else:
            bootstrap(x, stat, b=b, seed=1, labels=LABELS)
        return stat.counts

    split = run()
    assert _fork._workers  # a worker ran part of it
    alone = _serially(run)
    assert split == alone
    assert split["newton"] > 0 and split["steps"] > split["newton"]
    if case != "standard":
        assert split["indefinite"] > 0 and split["nonregular"] > 0  # fallbacks by cause


def test_a_statistic_that_does_not_pickle_runs_here(forking):
    class Local(_Shapes):
        pass

    x = np.arange(40.0)
    stat = Local()
    _same_report(bootstrap(x, stat, b=200, seed=3), _serially(lambda: bootstrap(x, _Shapes(), b=200, seed=3)))
    assert stat.lanes == [100, 100] and not _fork._workers


def test_workers_exit_on_their_closed_pipes(forking, monkeypatch):
    # three processes: the second worker must not hold the first one's pipe open
    monkeypatch.setattr(_fork, "cpus", lambda: 3)
    x = np.arange(60.0)
    alone = _serially(lambda: bootstrap(x, _Shapes(), b=300, seed=3))
    _same_report(bootstrap(x, _Shapes(), b=300, seed=3), alone)
    assert len(_fork._workers) == 2
    killed = []
    kill = _fork._kill
    monkeypatch.setattr(_fork, "_kill", lambda pid: (killed.append(pid), kill(pid)))
    _no_children_after_close()
    assert killed == []


def test_a_forked_caller_forks_its_own_worker(forking):
    x = np.arange(40.0)
    alone = _serially(lambda: bootstrap(x, _Shapes(), b=200, seed=3))
    bootstrap(x, _Shapes(), b=200, seed=3)
    (worker,) = _fork._workers
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            inherited = len(_fork._workers)
            report = bootstrap(x, _Shapes(), b=200, seed=3)
            own = [w.pid for w in _fork._workers]
            _fork.close()
            with open(write, "wb") as out:
                pickle.dump((inherited, own, _bits(report.se)), out)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with open(read, "rb") as pipe:
        sent = pipe.read()
    assert os.waitpid(pid, 0)[1] == 0
    inherited, own, se = pickle.loads(sent)
    assert inherited == 0 and len(own) == 1 and own[0] not in (worker.pid, pid)
    assert se == _bits(alone.se)
    _same_report(bootstrap(x, _Shapes(), b=200, seed=3), alone)  # the parent's worker still serves
    assert _fork._workers == [worker]
    _no_children_after_close()


def test_a_worker_is_gone_when_its_process_exits(forking):
    script = ("import numpy as np; from blockmax import _fork, resampling; "
              "from blockmax.inference import Refit; resampling.MIN_SHARE_VALUES = 1; "
              "x = np.random.default_rng(1).gumbel(80.0, 20.0, 129); "
              "resampling.bootstrap(x, Refit('gev'), b=99, seed=1); "
              "print(*[w.pid for w in _fork._workers])")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (pid,) = map(int, proc.stdout.split())
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


class _LogOfZeroOnTheLastReplicate(_Flaky):
    """Takes log(0) on the last replicate of B=200, seed 5 only: in the worker's share."""

    def rows(self, X, failures):
        last = (X == _LAST).all(axis=1)
        np.log(0.0 * X[last, 0])
        return X.mean(axis=1)[:, None], np.ones(X.shape[0], dtype=bool)


def test_numpy_error_state_set_after_the_fork_holds_in_the_worker(forking):
    x = np.arange(40.0)
    stat = _LogOfZeroOnTheLastReplicate()
    with np.errstate(divide="raise"):
        bootstrap(x, _Shapes(), b=200, seed=5)  # the worker is forked raising
    (worker,) = _fork._workers
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        _same_report(bootstrap(x, stat, b=200, seed=5),
                     _serially(lambda: bootstrap(x, stat, b=200, seed=5)))
    assert _fork._workers == [worker]  # it warned there, as here, and did not fail

    _fork.close()
    bootstrap(x, _Shapes(), b=200, seed=5)  # a worker forked warning
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        bootstrap(x, stat, b=200, seed=5)
    _no_children_left()  # it raised there, and was reaped


class _Shifted(_Flaky):
    shift = 0.0

    def rows(self, X, failures):
        return X.mean(axis=1)[:, None] + self.shift, np.ones(X.shape[0], dtype=bool)


def test_a_class_redefined_after_the_fork_is_not_run_stale(forking, monkeypatch):
    x = np.arange(40.0)
    bootstrap(x, _Shifted(), b=200, seed=3)
    (worker,) = _fork._workers
    # as a notebook cell run again, or importlib.reload, would redefine it
    redefined = type("_Shifted", (_Flaky,), {"shift": 1.0, "rows": _Shifted.rows,
                                             "__module__": __name__, "__qualname__": "_Shifted"})
    monkeypatch.setattr(sys.modules[__name__], "_Shifted", redefined)
    alone = _serially(lambda: bootstrap(x, redefined(), b=200, seed=3))
    _same_report(bootstrap(x, redefined(), b=200, seed=3), alone)
    assert not _fork._workers  # the stale worker ended, and its share ran here
    _no_children_left()
    _same_report(bootstrap(x, redefined(), b=200, seed=3), alone)
    assert len(_fork._workers) == 1 and _fork._workers[0].pid != worker.pid


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
    assert stat.lanes == [500]  # the other batch ran in the worker
    _no_children_after_close()


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
    # a lambda does not pickle: every item runs here
    assert list(_fork.ordered(lambda i: i * i, range(5))) == [0, 1, 4, 9, 16]
    assert list(_fork.ordered(lambda i: i * i, [])) == []
    assert not _fork._workers


def _call(item):
    return item()


def test_items_that_do_not_pickle_run_here_in_order():
    ran = []
    items = [lambda i=i: ran.append(i) or i * i for i in range(4)]  # fn pickles, no item does
    assert list(_fork.ordered(_call, items)) == [0, 1, 4, 9]
    assert ran == [0, 1, 2, 3] and not _fork._workers


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
