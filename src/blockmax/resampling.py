"""Bootstrap and jackknife bias/standard-error estimation.

Both resamplers work on any statistic mapping a 1-D value array to a scalar
or vector.  Reports carry bias, standard error, |bias|/se, root mean square
error and the bias-corrected estimate per component, plus the screening
verdict helpers built on the quarter-of-a-standard-error rule of thumb.

A statistic with a ``rows(X, failures)`` method, which returns
``(theta, ok)`` for the rows of ``X`` and adds the cause of each failed row
to the ``failures`` Counter (such as :class:`blockmax.inference.Refit`), is
evaluated in batches at every sample size: the resampled samples are
gathered into the rows of a matrix of about ``CHUNK_ELEMENTS`` values, and
each batch is one ``rows`` call.  A batch's index matrix is drawn in one
pass (:func:`_draws`), bit for bit the per-replicate streams of
:func:`_draw`, so the samples are the same as in the one-at-a-time loop used
for plain callables, and the reports are identical.

The batches of a round are near-equal, at least one per process, and are
split between this process and its worker processes wherever every process
gets ``MIN_SHARE_VALUES`` resampled values (see :mod:`blockmax._fork`).  A
round's work is a :class:`_Round`, which pickles: each worker is sent it
with its share of the batches, runs the share, and sends back the results,
consumed here in batch order, so the reports and errors are those of a
serial run.  A worker is forked at the first round that splits and serves
every later one; it is killed when a round ends early or it dies (the next
split forks another), it is reaped at exit, and a process forked from the
caller does not share it.  A ``rows`` method may therefore run in a worker,
in the module state of the moment that worker was forked (apart from the
warning filters and numpy's error state, and a statistic whose class was
redefined since then, which :mod:`blockmax._fork` handles): its side effects
there, other than warnings and the tallies of a ``counts`` Counter
attribute (which come back and are added to the caller's statistic), are
not seen by the caller.  A statistic that does not pickle runs all its
batches here.  There is no option or environment variable for any of it:
``taskset -c 0`` makes every round serial.

:func:`bootstrap`, :func:`jackknife` and :func:`bootstrap_jackknife` send
a ``rows`` statistic through one driver, :func:`_rounds`.  With both
methods, the jackknife's batches ride in the bootstrap's first round: the
fork rule counts the values of both, and every process gets a near-equal
share of each; :func:`jackknife` alone is that round without bootstrap
batches.  The reports and errors of :func:`bootstrap_jackknife` are those
of :func:`bootstrap` and :func:`jackknife` called one after the other: the
jackknife's error is raised from the round it rode in, once the bootstrap
is done, and no batch runs twice.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _fork
from .data import as_values

__all__ = [
    "ResamplingError",
    "ResamplingReport",
    "Verdict",
    "bootstrap",
    "bootstrap_jackknife",
    "jackknife",
    "rmse",
    "rmse_approx",
    "screen",
]

# |bias|/se below this is ignorable; at or above CORRECT_MAX the statistic
# itself is suspect (the upper threshold is a heuristic, the rule of thumb
# only says "large compared to the standard error").
IGNORE_BELOW = 0.25
CORRECT_MAX = 1.0

# Values (lanes x n) per batched ``rows`` call: about 508 lanes at n=129, so
# B=999 runs as two batches, one per process on two CPUs.  Every lockstep
# iteration has a fixed cost, and a batch runs as many iterations as its
# slowest lane; wide batches pay both fewer times.
CHUNK_ELEMENTS = 65_536
# Fewest resampled values (rows x n) per process for which splitting a round
# is kept.  On a 2-vCPU Xeon VM a forked round of Newton refits at n=129 was
# slower than one process at every size below about 65 000 values in all.
# With the worker warm, a split of the jackknife alone (129 x 128 values)
# took 3.7 against 4.0 ms and bootstrap B=99 5.62 against 5.64 ms, within
# the noise, slower in several inputs (medians over ten inputs,
# BENCH_worker.json); the first split of a process still pays a whole fork,
# which was not timed, and no benchmark workload runs rounds of that size.
# So the floor stays: the jackknife of n=129 alone runs in one process, and
# bootstrap B=999 at n=129 on two CPUs.
MIN_SHARE_VALUES = 40_000


class ResamplingError(Exception):
    """Resampling aborted (too many failed replicates, or a failed refit)."""


class Verdict(Enum):
    IGNORE = "ignore"
    CORRECT = "correct"
    SUSPECT = "suspect"


@dataclass(frozen=True)
class ResamplingReport:
    """Per-component resampling summary; method is "bootstrap" or "jackknife".

    ``failed`` counts the bootstrap replicates that were redrawn, and
    ``failures`` splits that count by cause: the ``cause`` of the error
    (``not_converged``, ``penalized_optimum``, ``non_finite``), or the
    exception's type name for a plain statistic that raised.
    """

    method: str
    labels: tuple[str, ...]
    estimate: np.ndarray
    bias: np.ndarray
    se: np.ndarray
    ratio: np.ndarray
    rmse: np.ndarray
    corrected: np.ndarray
    b: int | None = None
    seed: int | None = None
    failed: int = 0
    failures: dict[str, int] = field(default_factory=dict)


def rmse(bias: float, se: float) -> float:
    """Root mean square error se*sqrt(1 + (bias/se)^2), the exact form."""
    if se <= 0:
        raise ValueError("se must be positive")
    return se * math.sqrt(1.0 + (bias / se) ** 2)


def rmse_approx(bias: float, se: float) -> float:
    """Quadratic approximation se*(1 + 0.5*(bias/se)^2)."""
    if se <= 0:
        raise ValueError("se must be positive")
    return se * (1.0 + 0.5 * (bias / se) ** 2)


def _ratio(bias: np.ndarray, se: np.ndarray) -> np.ndarray:
    out = np.zeros_like(bias)
    nonzero = se > 0
    out[nonzero] = np.abs(bias[nonzero]) / se[nonzero]
    out[~nonzero & (bias != 0)] = np.inf
    return out


def _labels(labels, k):
    if labels is None:
        return tuple(f"stat_{i}" for i in range(k))
    labels = tuple(labels)
    if len(labels) != k:
        raise ValueError("labels length must match the statistic dimension")
    return labels


class _NonFinite(ValueError):
    """The statistic returned NaN or infinite values."""

    cause = "non_finite"


def _cause(exc: Exception) -> str:
    return getattr(exc, "cause", None) or type(exc).__name__


def _evaluate(statistic, values) -> np.ndarray:
    out = np.atleast_1d(np.asarray(statistic(values), dtype=float))
    if out.ndim != 1:
        raise ValueError("statistic must return a scalar or 1-D vector")
    if not np.all(np.isfinite(out)):
        raise _NonFinite("statistic returned non-finite values")
    return out


def _evaluate_rows(statistic, X, k, failures) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`_evaluate`: ``(theta, ok)`` for the rows of ``X``."""
    theta, ok = statistic.rows(X, failures)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (X.shape[0], k):
        raise ValueError(f"statistic rows returned shape {theta.shape}, expected {(X.shape[0], k)}")
    finite = np.isfinite(theta).all(axis=1)
    if not finite[ok].all():
        failures[_NonFinite.cause] += int(np.count_nonzero(ok & ~finite))
    return theta, ok & finite


def _lanes(n: int) -> int:
    return max(1, CHUNK_ELEMENTS // n)


def _chunk_spans(rows: int, lanes: int, processes: int) -> list[tuple[int, int]]:
    """Near-equal batches of about ``lanes`` rows, at least one per process."""
    return _fork.spans(rows, max(processes, round(rows / lanes)))


def _draw(seed: int, i: int, attempt: int, n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i, attempt])))
    return rng.integers(0, n, size=n)


# numpy's SeedSequence hash (bit_generator.pyx) and PCG64 seeding (pcg64.h)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value: int) -> list[int]:
    """The uint32 words SeedSequence takes from a nonnegative int, least significant first."""
    out = [value & _MASK32]
    value >>= 32
    while value:
        out.append(value & _MASK32)
        value >>= 32
    return out


def _lemire_threshold(n: int) -> int:
    """Below this, a 32-bit draw's low product word is rejected by ``integers(0, n)``."""
    return (2**32 - n) % n


def _draws(seed: int, chunk, n: int) -> np.ndarray:
    """``np.stack([_draw(seed, i, attempt, n) for i, attempt in chunk])``, bit for bit.

    SeedSequence's uint32 hash runs in numpy over all lanes at once (the
    seed's words are common to them), PCG64's two seeding steps on Python
    ints, and numpy's own PCG64 makes each lane's raw 64-bit outputs, taken
    through its ``state`` setter and ``random_raw``.  ``integers(0, n)`` maps
    each 32-bit half (low first) to ``(u * n) >> 32`` (Lemire's bound) and
    rejects a draw whose low product word is below :func:`_lemire_threshold`;
    a lane with a rejected draw, or whose i or attempt takes more than one
    word, goes through :func:`_draw`, and so does a chunk of one lane, which
    would pay the hash's fixed cost alone: every batch of a sample longer
    than ``CHUNK_ELEMENTS // 2`` values is one.
    """
    lanes = len(chunk)
    if lanes == 1:
        return _draw(seed, *chunk[0], n)[None, :]
    index = np.array([i for i, _ in chunk], dtype=np.int64)
    attempt = np.array([a for _, a in chunk], dtype=np.int64)
    wide = (index > _MASK32) | (attempt > _MASK32)
    entropy = [np.full(lanes, w, dtype=np.uint32) for w in _words(seed)]
    entropy += [index.astype(np.uint32), attempt.astype(np.uint32)]

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = _MIX_L * x - _MIX_R * y
        return out ^ (out >> np.uint32(16))

    zero = np.zeros(lanes, dtype=np.uint32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64): eight words, paired little-endian
    state = np.empty((lanes, 8), dtype=np.uint32)
    hash_const = _INIT_B
    for k in range(8):
        value = pool[k % _POOL] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        state[:, k] = value ^ (value >> np.uint32(16))

    words = (n + 1) // 2
    raw = np.empty((lanes, words), dtype="<u8")
    generator = np.random.PCG64()
    setting = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    for r, (s0, s1, i0, i1) in enumerate(state.astype("<u4").view("<u8").tolist()):
        # pcg64_set_seed: state 0, one step, add the seed, one more step
        inc = (i0 << 65 | i1 << 1 | 1) & _MASK128
        setting["state"] = {"state": ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128,
                            "inc": inc}
        generator.state = setting
        raw[r] = generator.random_raw(words)
    draws = raw.view("<u4")[:, :n]
    redraw = (draws * np.uint32(n) < _lemire_threshold(n)).any(axis=1) | wide
    idx = np.multiply(draws, np.uint64(n), dtype=np.uint64)  # in place from here on
    idx >>= np.uint64(32)
    idx = idx.view(np.int64)
    for r in np.flatnonzero(redraw):
        idx[r] = _draw(seed, *chunk[r], n)
    return idx


def _assemble(method, labels, estimate, bias, se, **extra) -> ResamplingReport:
    return ResamplingReport(
        method=method,
        labels=_labels(labels, estimate.size),
        estimate=estimate,
        bias=bias,
        se=se,
        ratio=_ratio(bias, se),
        rmse=np.hypot(se, bias),  # se*sqrt(1+(bias/se)^2), safe at se == 0
        corrected=estimate - bias,
        **extra,
    )


def _check_bootstrap(b: int, seed: int):
    if b < 2:
        raise ValueError("bootstrap needs at least 2 replicates")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")


def bootstrap(sample, statistic, b: int = 999, seed: int = 0, labels=None) -> ResamplingReport:
    """Nonparametric bootstrap bias and standard error of a statistic.

    Draws ``b`` resamples of size n with replacement and evaluates the
    statistic on each: bias is the replicate mean minus the full-sample
    value, the standard error is the replicate standard deviation (divisor
    b - 1).  Replicate ``i`` draws from its own PCG64 stream seeded by
    (seed, i, attempt), so results are deterministic and independent of any
    parallel execution order.  A replicate whose statistic raises (or returns
    non-finite values, or is not ``ok`` in a ``rows`` batch) is redrawn with
    attempt + 1; more than 10% failures aborts.  An exception raised by a
    ``rows`` call is not a failed replicate: it propagates.  In batches the
    budget is checked once a round is finished, and the error lists the
    causes of every failure so far.
    """
    values = as_values(sample)
    _check_bootstrap(b, seed)
    estimate = _evaluate(statistic, values)

    replicates = np.empty((b, estimate.size))
    failures: Counter = Counter()
    if hasattr(statistic, "rows"):
        failed = _rounds(values, statistic, seed, replicates, failures)
    else:
        failed = _bootstrap_loop(values, statistic, seed, replicates, failures)
    return _bootstrap_report(labels, estimate, replicates, seed, failed, failures)


def _bootstrap_report(labels, estimate, replicates, seed, failed, failures) -> ResamplingReport:
    bias = replicates.mean(axis=0) - estimate
    se = replicates.std(axis=0, ddof=1)
    return _assemble("bootstrap", labels, estimate, bias, se, b=replicates.shape[0], seed=seed,
                     failed=failed, failures=dict(sorted(failures.items())))


def _bootstrap_loop(values, statistic, seed, replicates, failures) -> int:
    """Replicates one at a time; a failed one is redrawn at once.  The failure count."""
    b, n = replicates.shape[0], values.size
    failed = 0
    for i in range(b):
        attempt = 0
        while True:
            idx = _draw(seed, i, attempt, n)
            try:
                replicates[i] = _evaluate(statistic, values[idx])
                break
            except Exception as exc:  # noqa: BLE001 - any failed refit counts
                failed += 1
                failures[_cause(exc)] += 1
                if failed > 0.10 * b:
                    raise ResamplingError(
                        f"{failed} of {b} bootstrap replicates failed "
                        f"(limit 10%); last error: {exc!r}"
                    ) from exc
                attempt += 1
    return failed


@dataclass(frozen=True, eq=False)
class _Round:
    """A round's batched work, run on a share of its tasks; it pickles, so a
    worker process (see :mod:`blockmax._fork`) can run a share.

    A task is ``("boot", chunk)``: the bootstrap replicates of the
    ``(i, attempt)`` pairs in ``chunk``, as ``(theta, ok, counted)``; or
    ``("loo", span)``: the leave-one-out refits of :func:`_leave_one_out`.
    A call returns the share's outputs, and, when it runs in a process other
    than the one that made the round, what the share added to the
    statistic's ``counts`` Counter; where the round was made, the share adds
    to it directly and the second item is None.
    """

    values: np.ndarray
    statistic: object
    seed: int | None
    k: int
    home: int = field(default_factory=os.getpid)

    def __call__(self, share):
        counts = getattr(self.statistic, "counts", None)
        away = isinstance(counts, Counter) and os.getpid() != self.home
        if away:
            counts.clear()  # this statistic is the worker's copy: keep what the share adds
        return [self._task(kind, item) for kind, item in share], counts if away else None

    def _task(self, kind, item):
        if kind == "loo":
            return _leave_one_out(self.values, self.statistic, self.k, item)
        X = self.values[_draws(self.seed, item, self.values.size)]
        counted: Counter = Counter()
        theta, ok = _evaluate_rows(self.statistic, X, self.k, counted)
        return theta, ok, counted


def _split(work: _Round, runs, processes: int) -> list:
    """``(kind, item, output)`` of every task of ``runs``, one list of tasks per method, in order.

    Share p holds the p-th of ``processes`` near-equal runs of each method's
    tasks, and runs in a worker unless p is 0 (:func:`_fork.ordered`); the
    counts a share made in a worker are added to the statistic's here.
    """
    cuts = zip(*(_fork.spans(len(run), processes) for run in runs))
    shares = [[task for run, (a, z) in zip(runs, cut) for task in run[a:z]] for cut in cuts]
    done = []
    with closing(_fork.ordered(work, shares)) as results:
        for share, (outputs, counts) in zip(shares, results):
            if counts:
                work.statistic.counts.update(counts)
            done += [(kind, item, out) for (kind, item), out in zip(share, outputs)]
    return done


def _rounds(values, statistic, seed, replicates, failures, loo=None) -> int:
    """The rounds of a ``rows`` statistic; the bootstrap's failure count.

    The replicates fill ``replicates`` in batches of gathered rows, and failed
    ones are redrawn next round.  Every replicate goes through the same
    (seed, i, attempt) draws as in the loop, so the replicates, the failure
    count and whether the budget breaks are the same; only the order of
    evaluation differs.  A round's batches may be split over worker
    processes; they are consumed in order.

    With ``loo``, an (n, k) array, the jackknife's leave-one-out batches ride
    in the first round, the only one where there are no replicates: the fork
    rule counts both methods' values, and every process gets a near-equal
    share of each method's batches.  Their values fill ``loo``; their
    failures are kept apart from the bootstrap's, and the jackknife's error
    (see :func:`jackknife`) is raised once the bootstrap is done without one.
    """
    b, k = replicates.shape
    n = values.size
    work = _Round(values, statistic, seed, k)
    failed = 0
    pending = [(i, 0) for i in range(b)]  # (replicate, attempt)
    loo_ok = np.ones(n, dtype=bool)
    loo_failures: Counter = Counter()
    raised = None  # (what, exception) of the first leave-one-out batch whose rows call raised
    while pending or loo is not None:
        processes = _fork.processes(len(pending) * n + (0 if loo is None else n * (n - 1)),
                                    MIN_SHARE_VALUES)
        runs = []
        if pending:
            spans = _chunk_spans(len(pending), _lanes(n), processes)
            runs.append([("boot", pending[a:z]) for a, z in spans])
        if loo is not None:
            runs.append([("loo", span) for span in _loo_spans(n, processes)])
        redraw, broke = [], None
        for kind, item, out in _split(work, runs, processes):
            if kind == "loo":
                if len(out) == 2:
                    raised = raised or out
                else:
                    loo[slice(*item)], loo_ok[slice(*item)], counted = out
                    loo_failures.update(counted)
                continue
            theta, ok, counted = out
            failures.update(counted)
            rows = np.array([i for i, _ in item])
            replicates[rows[ok]] = theta[ok]
            for (i, attempt), good in zip(item, ok):
                if not good:
                    redraw.append((i, attempt + 1))
                    failed += 1  # one at a time, to break at the same count as the loop
                    if broke is None and failed > 0.10 * b:
                        broke = failed
        if broke is not None:
            # the round is finished first, so the causes do not depend on the batching
            raise ResamplingError(
                f"{broke} of {b} bootstrap replicates failed "
                f"(limit 10%); causes: {', '.join(sorted(failures))}"
            )
        pending, loo = redraw, None
    if raised is not None:
        what, exc = raised
        raise ResamplingError(f"jackknife {what} failed: {exc!r}") from exc
    if not loo_ok.all():
        raise ResamplingError(
            f"jackknife refit without observation {int(np.flatnonzero(~loo_ok)[0])} failed; "
            f"causes: {', '.join(sorted(loo_failures))}"
        )
    return failed


def _loo_spans(n: int, processes: int) -> list[tuple[int, int]]:
    """The jackknife's batches of leave-one-out rows, at least one per process."""
    return _chunk_spans(n, _lanes(n - 1), processes)


def _leave_one_out(values, statistic, k, span):
    """``(theta, ok, counted)`` of the rows ``statistic.rows`` gives the samples
    without observation i, for i in ``range(*span)``.

    Where that call raises, the batch runs again one row at a time, and the
    result is ``("refit without observation i", exception)`` of the first
    row that raises alone, or ``("batch from observation start", exception)``
    where none does: the batch is named by its first row only, since its
    last depends on the number of processes.
    """
    start, stop = span
    # row i skips observation i: column j reads j, or j + 1 from i on
    column = np.arange(values.size - 1)
    X = values[column + (column >= np.arange(start, stop)[:, None])]
    counted: Counter = Counter()
    try:
        theta, ok = _evaluate_rows(statistic, X, k, counted)
    except Exception as batch:  # noqa: BLE001 - raised as the jackknife's error once the rounds end
        for i, row in enumerate(X, start):
            try:
                _evaluate_rows(statistic, row[None, :], k, Counter())
            except Exception as exc:  # noqa: BLE001 - as above
                return f"refit without observation {i}", exc
        return f"batch from observation {start}", batch
    return theta, ok, counted


def jackknife(sample, statistic, labels=None) -> ResamplingReport:
    """Leave-one-out jackknife bias and standard error of a statistic.

    Exactly n evaluations, one per deleted observation:
    bias = (n-1)*(mean of leave-one-out values - full value),
    se = sqrt((n-1)/n * sum (theta_(i) - mean)^2).  Fully deterministic;
    any failed evaluation aborts with ResamplingError (there is no redraw to
    fall back on).  With a ``rows`` statistic the leave-one-out samples are
    evaluated in batches, one round of :func:`_rounds`, and it aborts once
    every batch is in: naming, as the loop does, the first observation whose
    row raises alone (see :func:`_leave_one_out`), or else the first failed
    refit, whatever the batches and processes.
    """
    values = as_values(sample)
    n = values.size
    if n < 3:
        raise ValueError("jackknife needs at least 3 observations")
    estimate = _evaluate(statistic, values)
    k = estimate.size

    loo = np.empty((n, k))
    if hasattr(statistic, "rows"):
        _rounds(values, statistic, None, np.empty((0, k)), Counter(), loo)
    else:
        mask = np.ones(n, dtype=bool)
        for i in range(n):
            mask[i] = False
            try:
                loo[i] = _evaluate(statistic, values[mask])
            except Exception as exc:  # noqa: BLE001
                raise ResamplingError(
                    f"jackknife refit without observation {i} failed: {exc!r}"
                ) from exc
            mask[i] = True
    return _jackknife_report(labels, estimate, loo)


def _jackknife_report(labels, estimate, loo) -> ResamplingReport:
    n = loo.shape[0]
    center = loo.mean(axis=0)
    bias = (n - 1.0) * (center - estimate)
    se = np.sqrt((n - 1.0) / n * ((loo - center) ** 2).sum(axis=0))
    return _assemble("jackknife", labels, estimate, bias, se)


def bootstrap_jackknife(sample, statistic, b: int = 999, seed: int = 0, labels=None):
    """``(bootstrap(sample, statistic, b, seed, labels), jackknife(sample, statistic, labels))``.

    The reports are those of the two calls, bit for bit, and a plain
    callable makes the two calls.  With a ``rows`` statistic, at any sample
    size, the full-sample value is evaluated once, and the jackknife's
    leave-one-out batches ride in the bootstrap's first round (see
    :func:`_rounds`), so on two CPUs neither waits for the other.  The
    errors are those of the two calls: the bootstrap's come first, and the
    jackknife's is raised from that round once the bootstrap is done.
    """
    values = as_values(sample)
    n = values.size
    if n < 3 or not hasattr(statistic, "rows"):
        return bootstrap(values, statistic, b, seed, labels), jackknife(values, statistic, labels)
    _check_bootstrap(b, seed)
    estimate = _evaluate(statistic, values)
    replicates = np.empty((b, estimate.size))
    loo = np.empty((n, estimate.size))
    failures: Counter = Counter()
    failed = _rounds(values, statistic, seed, replicates, failures, loo)
    return (_bootstrap_report(labels, estimate, replicates, seed, failed, failures),
            _jackknife_report(labels, estimate, loo))


def screen(report: ResamplingReport) -> tuple[Verdict, ...]:
    """Per-component verdict from |bias|/se: ignore, correct, or suspect."""

    def verdict(r):
        if not math.isfinite(r):
            return Verdict.SUSPECT
        if r < IGNORE_BELOW:
            return Verdict.IGNORE
        if r < CORRECT_MAX:
            return Verdict.CORRECT
        return Verdict.SUSPECT

    return tuple(verdict(r) for r in report.ratio)
