"""Benchmark: the per-layer table of blockmax, for this tree or against another.

    python benchmarks/bench_kernels.py                          # print the table
    python benchmarks/bench_kernels.py --layers-json BENCH_lockstep_profiles.json \
        --src <the src directory of another checkout>

The table holds, for the source tree it runs on:

* kernel us per call of the scalar kernels ``gev_nllh``/``gumbel_nllh`` and
  of one derivative pass (``likelihood.gev_derivatives_rows`` on one lane,
  where the tree has it) at n = 129, 2000 and 10 000, best of 7 loops;
* one ``fit_gev`` at n=129: ms (median of 20) and objective evaluations;
* the bootstrap (B=999) and the jackknife stage of ``workflow.resample`` and
  ``run_workflow`` (GEV forced, B=999) on the README series, on one CPU and
  on every CPU the process may use: wall seconds, and user+system CPU
  seconds of this process and of its reaped children (RUSAGE_CHILDREN);
* the refit counts of the standard case on one CPU (``Refit.counts``: rows
  refitted by Newton, their derivative passes and the fallbacks by cause);
* the profile stage: the four profiles of the profile-scan workload (xi and
  the 10-, 40- and 100-block levels, n=129) after one ``fit_gev``, each in ms
  on one CPU and on every CPU (median of 5), with its grid points and, where
  the tree has Newton profiles (``ProfileCurve.counts``), its derivative
  passes (in all and per grid point), fallbacks and, for lockstep grids,
  waves.

``--passes-json FILE`` writes the ``passes`` report instead, for this tree
and ``--src``: per perfbench report-standard input (GEV n=129, seeds 1-10,
37 and 38; B=999, seed 4), the derivative and value lane-passes per
bootstrap replicate and per jackknife row, the series lane-passes and
series calls of a ``run_workflow`` job, the minor page faults
(``ru_minflt``) of the bootstrap plus jackknife, and its wall ms on one CPU
and on every CPU, with the bootstrap alone on every CPU beside it.  The
counts are taken on one CPU, so no refit runs in a child.

``--worker-json FILE`` writes the ``worker`` report, for this tree and
``--src``: per perfbench report-standard input of seeds 1-10 (GEV n=129,
``workflow.resample`` with B=999, seed 4 and the jackknife), the resampling
stage's wall seconds, the CPU seconds and minor page faults (``ru_minflt``)
of this process, and those of its children: the reaped ones
(RUSAGE_CHILDREN) and the live resampling workers (``/proc/<pid>/stat``),
on one CPU (pinned, as ``taskset -c 0``) and on every CPU.  On every CPU
the parent tree's rounds fork a child each; this tree's go to a worker kept
warm from call to call.  Beside them, on every CPU, the stages that a fork
floor (``resampling.MIN_SHARE_VALUES``) of 40 000 values kept in one
process at n=129, the jackknife alone and bootstrap B=99-299, each in one
process and split.

``--pairs-json FILE --workload W --seeds A-B`` runs perfbench
(``perfbench/run.py --workload W --seed S --seconds SECONDS``) in the
checkout of ``--src`` and in this one for each seed, the side that runs
first alternating from seed to seed, and adds the pairs and their
summary (medians, quartiles, the pairs each side won) to FILE under
``perfbench_pairs``.

``--one-path-json FILE`` writes the ``one_path`` report of this tree: the
crossover cases above 10 000 values (bootstrap B=999 at n = 10 001, 20 000
and 50 000, and the jackknife at n = 12 000; see ``_paths``), each timed in
ONE_PATH_PAIRS alternating pairs of the loop and the batched path, the path
that runs first alternating from pair to pair, on one CPU (pinned, as
``taskset -c 0``) and on every CPU.  Per case it holds the seconds of every
run, each path's median and quartiles, the pairs each path won, and the se
bits of both paths.

``--identity --seeds A-B`` runs ``blockmax report`` in fresh interpreters
of this tree and of ``--src``, pinned to one CPU (as ``taskset -c 0``) and
to two, on each seed's perfbench report-standard input with that
workload's flags and on ``tests/data/maxima.txt --model gev --boot-B 999
--seed 4``.  It compares the two trees' report files, standard output,
standard error and exit codes byte for byte, prints each case's verdict,
and exits 1 on any difference.

``--memory-json FILE --seeds A-B`` runs perfbench report-standard for
``--seconds`` in the checkout of ``--src`` and in this one for each seed,
reads ``/proc`` of the perfbench process and of its forked children (the
resampling workers, or the per-round children) every MEMORY_POLL_S, and
adds to FILE under ``memory``, per run, the last sample of the timed loop
that had a forked child, and each field's largest value over the loop:
``VmRSS``, ``RssAnon`` and ``VmHWM`` from ``status``, and ``Pss`` and the
private pages from ``smaps_rollup``.  A sample is in the timed loop while
the perfbench process's ``VmHWM`` is within 0.5 MB of the ``peak_rss_mb``
it reports, which it reads as the loop ends; the checks after the loop
take more memory.

With ``--layers-json`` each tree (this one as "change", ``--src`` as
"parent") runs in fresh interpreters, the sides alternating, REPEATS times,
and the file gets the medians with the host facts.  The first run of each
tree also takes the slow parts, on one CPU: a straggler sweep of small,
strongly bounded or heavy-tailed samples (wall time, outcomes and refit
counts), for a tree with Newton refits, bootstrap B=999 at n = 2048 to
50 000 and the jackknife at n = 12 000 through the batched path and through
the one-at-a-time loop, and the profile sweep (``HEAVY_PROFILES``: xi, mu,
sigma and the 10- and 100-block levels, of the GEV(0, 1, xi) samples of n
in ``HEAVY``, seeds 0-17: heavy-tailed samples whose profiles branch, and
small or bounded ones whose profiles reach the nonregular shapes; 630
profiles), timed on one CPU and, where the process may use two, again on
every CPU.  With ``--src`` the file also gets the agreement of the two
trees' sweeps: interval shifts, the largest relative change of grid, lp and
interval by profile, worse optima, outcomes that differ, and fallbacks by
profile and cause (see ``_agreement``).
``best_of`` is also the kernel timer of ``perfbench/run.py``.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

import blockmax as bm
from blockmax import _core

REPEATS = 5
SIZES = (129, 2000, 10_000)
CROSS_SIZES = (2048, 4096, 8192, 10_000, 20_000, 50_000)
# the crossover's jackknife: leave-one-out rows above 10 000 values
JACKKNIFE_N = 12_000
# the one-path report: its bootstrap sizes, and its pairs per method
ONE_PATH_SIZES = (10_001, 20_000, 50_000)
ONE_PATH_PAIRS = {"bootstrap": 5, "jackknife": 3}
# (n, xi, seeds): samples where refits fail or straggle
SWEEP = ((12, -0.8, range(10)), (12, 0.5, range(10)), (15, 1.0, range(10)))
SWEEP_B = 400
PROFILES = (("xi", None), ("level10", 0.1), ("level40", 0.025), ("level100", 0.01))
# (xi, n): heavy-tailed samples whose profiles branch, and small or bounded
# samples whose profiles reach the nonregular shapes (xi <= -0.5), seeds 0-17
HEAVY = ((0.3, 40), (0.4, 30), (-0.3, 30), (-0.3, 50), (-0.45, 20), (0.1, 20), (0.0, 15))
HEAVY_SEEDS = range(18)
# (name, which, p): the profiles of each sample of the heavy sweep
HEAVY_PROFILES = (("xi", "xi", None), ("mu", "mu", None), ("sigma", "sigma", None),
                  ("level10", "return_level", 0.1), ("level100", "return_level", 0.01))
# ProfileCurve.counts keys that are not fallback causes
_NOT_FALLBACKS = ("newton", "steps", "waves")
# perfbench report-standard seeds of the passes report
PASS_SEEDS = (*range(1, 11), 37, 38)
PASS_REPEATS = 3
# perfbench report-standard seeds of the worker report, its fresh runs per
# tree, and its stage calls per seed and CPU set: untimed, then timed
WORKER_SEEDS = range(1, 11)
WORKER_REPEATS = 3
WORKER_WARMUP = 3
WORKER_CALLS = 15
# the stages (boot_b, jackknife) at n=129 that a fork floor of 40 000 values
# per process kept in one process: the jackknife alone and bootstrap B=99-299
FLOOR_STAGES = {"jackknife": (0, True), **{f"bootstrap_b{b}": (b, False) for b in range(99, 300, 50)}}
ROOT = Path(__file__).resolve().parent.parent
# seconds between two samples of /proc in the memory report
MEMORY_POLL_S = 0.2


def best_of(fn, repeats=5, inner=200):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def _cpu_seconds():
    """(this process, its reaped children) user + system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def _timed(fn, repeats=3):
    """Median wall, parent CPU and child CPU seconds of ``repeats`` calls."""
    runs = []
    for _ in range(repeats):
        c0, k0 = _cpu_seconds()
        w0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - w0
        c1, k1 = _cpu_seconds()
        runs.append((wall, c1 - c0, k1 - k0))
    wall, own, kids = (statistics.median(column) for column in zip(*runs))
    return {"wall_s": wall, "parent_cpu_s": own, "child_cpu_s": kids}


class _Tally:
    """Makes every ``workflow.Refit`` add its counts to one Counter (in this process)."""

    def __init__(self):
        self.counts = Counter()
        self.saved = bm.workflow.Refit

    def __enter__(self):
        counts, base = self.counts, self.saved

        def make(*args, **kwargs):
            refit = base(*args, **kwargs)
            if hasattr(refit, "counts"):
                refit.counts = counts
            return refit

        bm.workflow.Refit = make
        return counts

    def __exit__(self, *exc):
        bm.workflow.Refit = self.saved


def _kernels() -> dict:
    out = {}
    lik = bm.likelihood
    for n in SIZES:
        x = bm.sample(bm.GevParams(80.0, 20.0, -0.05), n, seed=1).values
        inner = max(20, 200_000 // n)
        out[f"gev_nllh_us.n{n}"] = 1e6 * best_of(lambda: _core.gev_nllh(x, 80.0, 20.0, -0.05), 7, inner)
        out[f"gumbel_nllh_us.n{n}"] = 1e6 * best_of(lambda: _core.gumbel_nllh(x, 80.0, 20.0), 7, inner)
        if hasattr(lik, "gev_derivatives_rows"):
            X, p = x[None, :], [np.array([v]) for v in (80.0, 20.0, -0.05)]
            out[f"gev_derivatives_us.n{n}"] = 1e6 * best_of(lambda: lik.gev_derivatives_rows(X, *p), 7, inner)
    return out


def _sweep() -> dict:
    """Straggler sweep: ``workflow.resample`` bootstrap of every sample, one CPU."""
    wf = bm.workflow
    outcome = Counter()
    with _Tally() as counts:
        t0 = time.perf_counter()
        for n, xi, seeds in SWEEP:
            for seed in seeds:
                values = bm.sample(bm.GevParams(0.0, 1.0, xi), n, seed=seed).values
                try:
                    fit = bm.fit_gev(values)
                except (bm.ConvergenceError, bm.DegenerateSampleError):
                    outcome["fit_failed"] += 1
                    continue
                try:
                    wf.resample(values, fit, boot_b=SWEEP_B, seed=4, run_jackknife=False)
                    outcome["resampled"] += 1
                except wf.WorkflowError:
                    outcome["resampling_failed"] += 1
        wall = time.perf_counter() - t0
    return {"wall_s": wall, "samples": dict(outcome), "counts": dict(counts)}


def _paths(method, n) -> dict:
    """``{"loop": run, "batched": run}`` of one crossover case, each ``run()``
    returning its report: ``bm.sample(GevParams(79, 21, 0.1), n, seed=7)``
    refit from its estimate, by bootstrap B=999 seed 3 or by the jackknife.
    The loop is the same refit with ``.rows`` hidden, as a plain callable."""
    values = bm.sample(bm.GevParams(79.0, 21.0, 0.1), n, seed=7).values
    fit = bm.fit_gev(values)
    refit = bm.workflow.Refit(fit.model, start=fit.theta)

    def run(statistic):
        if method == "bootstrap":
            return bm.bootstrap(values, statistic, b=999, seed=3)
        return bm.jackknife(values, statistic)

    return {"loop": lambda: run(lambda v: refit(v)), "batched": lambda: run(refit)}


def _se_bits(report) -> str:
    return " ".join(float(v).hex() for v in report.se)


def _crossover() -> dict:
    """Bootstrap B=999 of long samples and the jackknife at n = JACKKNIFE_N,
    the batched path against the loop (see :func:`_paths`): seconds per path
    and the se bits, which the two paths must share.  A tree that sends long
    samples to the loop runs the loop on both paths there."""
    out = {}
    for method, n in [("bootstrap", n) for n in CROSS_SIZES] + [("jackknife", JACKKNIFE_N)]:
        key = f"n{n}" if method == "bootstrap" else f"jackknife_n{n}"
        reports = {}
        for path, run in _paths(method, n).items():
            t0 = time.perf_counter()
            reports[path] = run()
            out[f"{key}.{path}_s"] = time.perf_counter() - t0
        assert _se_bits(reports["loop"]) == _se_bits(reports["batched"]), key
        out[f"{key}.se"] = _se_bits(reports["batched"])
    return out


def _quartiles(values) -> list:
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def one_path() -> dict:
    """The one-path report of this tree: see the module docstring."""
    every = os.sched_getaffinity(0)
    cases = [("bootstrap", n) for n in ONE_PATH_SIZES] + [("jackknife", JACKKNIFE_N)]
    out = {}
    try:
        for label, mask in (("one_cpu", {min(every)}), ("all_cpus", every)):
            os.sched_setaffinity(0, mask)
            for method, n in cases:
                paths = _paths(method, n)
                seconds = {"loop": [], "batched": []}
                se = {"loop": set(), "batched": set()}
                for pair in range(ONE_PATH_PAIRS[method]):
                    for path in (("loop", "batched") if pair % 2 == 0 else ("batched", "loop")):
                        t0 = time.perf_counter()
                        report = paths[path]()
                        seconds[path].append(time.perf_counter() - t0)
                        se[path].add(_se_bits(report))
                loop, batched = seconds["loop"], seconds["batched"]
                out[f"{label}.{method}_n{n}"] = {
                    "loop_s": loop, "batched_s": batched,
                    "loop_median_s": statistics.median(loop), "loop_quartiles_s": _quartiles(loop),
                    "batched_median_s": statistics.median(batched),
                    "batched_quartiles_s": _quartiles(batched),
                    "batched_faster_in": sum(b < a for a, b in zip(loop, batched)),
                    "loop_faster_in": sum(a < b for a, b in zip(loop, batched)),
                    "se_bits": {path: sorted(bits) for path, bits in se.items()},
                    "same_se_bits": len(se["loop"] | se["batched"]) == 1,
                }
                print(f"{label} {method} n={n} done", file=sys.stderr)
    finally:
        os.sched_setaffinity(0, every)
    return {
        "label": "one_path",
        "command": "PYTHONPATH=src python benchmarks/bench_kernels.py --one-path-json BENCH_one_path.json",
        "cores": "one_cpu: pinned to one CPU, as taskset -c 0 (no split); all_cpus: the "
                 f"{len(every)} CPUs the process may use",
        "host": _host(),
        "input": "bm.sample(GevParams(79, 21, 0.1), n, seed=7), refit by Refit('gev', "
                 "start=fit_gev(values).theta); bootstrap B=999 seed 3, or the jackknife; loop: "
                 "the same refit as a plain callable",
        "statistic": f"pairs per case {ONE_PATH_PAIRS}, in one process, the path that runs "
                     "first alternating from pair to pair; quartiles by statistics.quantiles(n=4); "
                     "*_faster_in counts pairs, ties for neither",
        "results": out,
    }


def _profile_runs(values, fit, n_grid=100):
    """The four profile-scan profiles, by name: ``(which, p) -> curve`` callables."""
    inference = bm.inference
    runs = {}
    for name, p in PROFILES:
        which = "xi" if p is None else "return_level"
        runs[name] = lambda which=which, p=p: inference.profile(
            values, "gev", which, p=p, fit=fit, n_grid=n_grid)
    return runs


def _profiles(values, fit, one, every) -> dict:
    """Per profile: ms on one and on every CPU, grid points, derivative passes,
    fallbacks and waves."""
    out = {}
    for name, run in _profile_runs(values, fit).items():
        row = {}
        for label, mask in (("one_cpu", one), ("all_cpus", every)):
            os.sched_setaffinity(0, mask)
            row[f"{label}_ms"] = 1e3 * _timed(run, repeats=5)["wall_s"]
        os.sched_setaffinity(0, one)
        curve = run()
        row["grid_points"] = int(curve.grid.size)
        counts = getattr(curve, "counts", None)
        if counts is not None:
            row["derivative_passes"] = counts["steps"]
            row["passes_per_point"] = counts["steps"] / curve.grid.size
            row["fallbacks"] = sum(v for k, v in counts.items() if k not in _NOT_FALLBACKS)
            if "waves" in counts:
                row["waves"] = counts["waves"]
        out[name] = row
    return out


def _heavy_sweep() -> dict:
    """The HEAVY_PROFILES of each HEAVY sample, one CPU.

    Per case: the grid, the profile log-likelihoods (read where the interval
    is formed, so a grid that does not bracket keeps them), the interval,
    the side that failed or the error that the profile raised, and the
    curve's counts where the tree has them.
    """
    inference = bm.inference
    profiles = getattr(bm, "profiles", inference)  # where the tree keeps the profile code
    formed = {}
    interval = profiles._deviance_interval

    def spy(grid, lp, lhat, critical):
        formed.update(grid=grid.tolist(), lp=lp.tolist())
        return interval(grid, lp, lhat, critical)

    out = {}
    profiles._deviance_interval = spy
    try:
        t0 = time.perf_counter()
        for xi, n in HEAVY:
            for seed in HEAVY_SEEDS:
                values = bm.sample(bm.GevParams(0.0, 1.0, xi), n, seed=seed).values
                fit = bm.fit_gev(values)
                for name, which, p in HEAVY_PROFILES:
                    formed.clear()
                    case = {"lhat": -fit.nllh, "grid": [], "lp": []}
                    try:
                        curve = inference.profile(values, "gev", which, p=p, fit=fit)
                        case["ci"] = list(curve.ci)
                        case["counts"] = dict(getattr(curve, "counts", {}))
                    except inference.ProfileBracketError as error:
                        case["unbracketed"] = error.side
                    except ValueError as error:  # such as a fit without standard errors
                        case["error"] = f"{type(error).__name__}: {error}"
                    out[f"xi{xi}_n{n}_seed{seed}_{name}"] = {**case, **formed}
        wall = time.perf_counter() - t0
    finally:
        profiles._deviance_interval = interval
    return {"wall_s": wall, "cases": out}


def _relative(old, new) -> float:
    """The largest |new - old| / max(|old|, |new|) of two equal-length sequences (0/0 is 0)."""
    old, new = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    scale = np.maximum(np.abs(old), np.abs(new))
    return float(np.max(np.abs(new - old) / np.where(scale == 0.0, 1.0, scale), initial=0.0))


def _agreement(parent: dict, change: dict) -> dict:
    """The heavy sweep of the change against the parent's, case by case.

    Intervals are compared in units of the parent's width where the parent
    left no grid point on the penalty surface.  Where both grids have the
    same size their points are paired by index, so a default grid that
    moved by an ulp is still compared; otherwise at the grid values both
    trees share.  The nllh of the change is compared at every paired point,
    split at a deviance of twice the critical value (each case with worse
    points is listed with their number, the largest gap and the smallest
    deviance), and per profile name the file gets the largest relative
    change of the grid, the lp and the interval over the cases paired by
    index.  Fallbacks are counted by profile and cause in each tree, and
    every case whose fallback counts or whose outcome (an interval, the
    side that did not bracket, or the error) differ between the trees is
    listed.
    """
    critical = bm.special.chi2_quantile(0.95, 1)
    shift, near, far, far_gap, better, penalized, differ = 0.0, 0, 0, 0.0, 0, {}, {}
    fallbacks = {"parent": {}, "change": {}}
    moved_fallbacks, worse_cases = {}, {}
    outcomes = {"parent": Counter(), "change": Counter()}
    changes = {}
    points = paired = 0
    for name, old in parent["cases"].items():
        new = change["cases"][name]
        profile_name = name.rsplit("_", 1)[1]
        by_cause = {}
        for tree, case in (("parent", old), ("change", new)):
            by_cause[tree] = {k: v for k, v in case.get("counts", {}).items() if k not in _NOT_FALLBACKS}
            fallbacks[tree].setdefault(profile_name, Counter()).update(by_cause[tree])
            outcomes[tree][next(k for k in ("ci", "unbracketed", "error") if k in case)] += 1
        if by_cause["parent"] != by_cause["change"]:
            moved_fallbacks[name] = by_cause
        points += len(new["grid"])
        by_profile = changes.setdefault(profile_name, {"cases_paired_by_index": 0, "cases_unpaired": 0,
                                                       "grid": 0.0, "lp": 0.0, "ci": 0.0})
        if len(new["grid"]) == len(old["grid"]):
            pairs = list(zip(old["lp"], new["lp"]))
            by_profile["cases_paired_by_index"] += 1
            by_profile["grid"] = max(by_profile["grid"], _relative(old["grid"], new["grid"]))
            by_profile["lp"] = max(by_profile["lp"], _relative(old["lp"], new["lp"]))
            if "ci" in old and "ci" in new:
                by_profile["ci"] = max(by_profile["ci"], _relative(old["ci"], new["ci"]))
        else:
            old_lp = dict(zip(old["grid"], old["lp"]))
            pairs = [(old_lp[g], lp) for g, lp in zip(new["grid"], new["lp"]) if g in old_lp]
            by_profile["cases_unpaired"] += 1
        paired += len(pairs)
        worse = [(was - lp, 2.0 * (new["lhat"] - lp)) for was, lp in pairs if -lp > -was + 1e-9 * abs(was)]
        better += sum(-was > -lp + 1e-9 * abs(lp) for was, lp in pairs)
        for gap, deviance in worse:
            if deviance <= 2.0 * critical:
                near += 1
            else:
                far += 1
                far_gap = max(far_gap, gap)
        if worse:
            worse_cases[name] = {"points": len(worse), "largest_gap": max(gap for gap, _ in worse),
                                 "smallest_deviance": min(deviance for _, deviance in worse)}
        old_outcome = old.get("ci", old.get("unbracketed", old.get("error")))
        new_outcome = new.get("ci", new.get("unbracketed", new.get("error")))
        on_penalty = sum(lp <= -bm.likelihood.PENALTY for lp in old["lp"])
        if on_penalty:
            penalized[name] = {"parent_penalized_points": on_penalty,
                               "parent": old_outcome, "change": new_outcome}
        elif "ci" in old and "ci" in new:
            width = old["ci"][1] - old["ci"][0]
            shift = max(shift, max(abs(a - b) for a, b in zip(old["ci"], new["ci"])) / width)
        elif old_outcome != new_outcome:
            differ[name] = {"parent": old_outcome, "change": new_outcome}
    return {
        "critical": critical,
        "cases": len(parent["cases"]),
        "grid_points": points,
        "paired_points": paired,
        "outcomes": {tree: dict(counts) for tree, counts in outcomes.items()},
        "max_ci_shift_per_width": shift,
        "max_relative_change_by_profile": changes,
        "worse_nllh_points_within_2x_critical": near,
        "worse_nllh_points_beyond": far,
        "worse_nllh_largest_gap_beyond": far_gap,
        "better_nllh_points": better,
        "cases_with_worse_nllh_points": worse_cases,
        "fallbacks": {tree: {name: dict(counts) for name, counts in by_profile.items()}
                      for tree, by_profile in fallbacks.items()},
        "cases_whose_fallbacks_differ": moved_fallbacks,
        "cases_with_penalized_parent_points": penalized,
        "cases_whose_outcome_differs": differ,
    }


def layers(slow: bool) -> dict:
    """Every number of the table for the blockmax this interpreter imports.

    ``slow`` adds the straggler sweep and, where the tree has Newton refits,
    the crossover; both run after the stages, since they grow the heap that
    every fork then copies.
    """
    every = os.sched_getaffinity(0)
    one = {min(every)}
    sample = bm.sample(bm.GevParams(79.0, 21.0, 0.0), 129, seed=101)
    values = sample.values
    wf = bm.workflow
    config = wf.WorkflowConfig(model="gev", boot_b=999, seed=4)
    side = {}
    try:
        os.sched_setaffinity(0, one)
        side["kernels"] = _kernels()
        fits = []
        for _ in range(20):
            t0 = time.perf_counter()
            fit = bm.fit_gev(sample)
            fits.append(time.perf_counter() - t0)
        side["fit_gev"] = {"ms": 1e3 * statistics.median(fits), "evaluations": fit.opt.evaluations}
        stages = {
            "bootstrap_b999": lambda: wf.resample(values, fit, boot_b=999, seed=4, run_jackknife=False),
            "jackknife": lambda: wf.resample(values, fit, boot_b=0),
            "run_workflow_gev_b999": lambda: wf.run_workflow(sample, config),
        }
        side["stages"] = {}
        for label, mask in (("one_cpu", one), ("all_cpus", every)):
            os.sched_setaffinity(0, mask)
            for name, run in stages.items():
                side["stages"][f"{label}.{name}"] = _timed(run)
        os.sched_setaffinity(0, one)
        with _Tally() as counts:
            stages["bootstrap_b999"]()
            stages["jackknife"]()
        side["standard_counts"] = dict(counts)
        scan = bm.sample(bm.GevParams(79.0, 21.0, 0.1), 129, seed=1).values
        scan_fit = bm.fit_gev(scan)
        side["profiles"] = _profiles(scan, scan_fit, one, every)
        os.sched_setaffinity(0, one)
        if slow:
            side["straggler_sweep"] = _sweep()
            if hasattr(bm.likelihood, "gev_derivatives_rows"):  # a tree with Newton refits
                side["crossover"] = _crossover()
            side["heavy_sweep"] = _heavy_sweep()
            if len(every) >= 2:
                os.sched_setaffinity(0, every)
                side["heavy_sweep_all_cpus_s"] = _heavy_sweep()["wall_s"]
    finally:
        os.sched_setaffinity(0, every)
    return side


class _Lanes:
    """Counts the calls and the lanes of the kernels named ``(module, attribute)``,
    by label, while it is entered; the lanes are the size of the second
    argument (mu) of each call."""

    def __init__(self, kernels):
        self.kernels = kernels
        self.counts = Counter()

    def __enter__(self):
        self.saved = []
        for label, (module, name) in self.kernels.items():
            kernel = getattr(module, name)
            self.saved.append((module, name, kernel))

            def counted(*args, label=label, kernel=kernel, **kwargs):
                self.counts[f"{label}_calls"] += 1
                self.counts[f"{label}_lanes"] += args[1].size
                return kernel(*args, **kwargs)

            setattr(module, name, counted)
        return self.counts

    def __exit__(self, *exc):
        for module, name, kernel in self.saved:
            setattr(module, name, kernel)


def _pass_kernels():
    """The refits' derivative and value row kernels, and the series kernel, of this tree."""
    inference = bm.inference
    series = (_core, "gev_series_sums") if hasattr(_core, "gev_series_sums") else (
        _core._kernels_py, "_series_sums")
    return {"derivative": (inference, "gev_derivatives_rows"), "value": (inference, "gev_nllh_rows"),
            "series": series}


def _perfbench(module):
    """A module of perfbench/, imported as perfbench/run.py imports it."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module(module)
    finally:
        sys.path.pop(0)


def _standard_input(seed, directory):
    """The perfbench report-standard input of ``seed``, read back as the CLI reads it."""
    (path,) = _perfbench("inputs").make_series(Path(directory), seed, n=129, mu=79.0, sigma=21.0, xi=0.0)
    return bm.data.ingest(path)


def _minflt(fn):
    """Minor page faults of this process during ``fn()``."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def passes() -> dict:
    """The passes report of this tree: per seed of PASS_SEEDS, see the module docstring."""
    wf = bm.workflow
    every = os.sched_getaffinity(0)
    one = {min(every)}
    config = wf.WorkflowConfig(model="gev", boot_b=999, seed=4)
    out = {}
    try:
        for seed in PASS_SEEDS:
            with tempfile.TemporaryDirectory() as directory:
                sample = _standard_input(seed, directory)
            values, fit = sample.values, bm.fit_gev(sample)
            both = lambda: wf.resample(values, fit, boot_b=999, seed=4)  # noqa: E731
            os.sched_setaffinity(0, one)
            row = {}
            with _Lanes(_pass_kernels()) as counts:
                report = wf.resample(values, fit, boot_b=999, seed=4, run_jackknife=False)
            replicates = 999 + report["bootstrap"]["failed"]
            for kind in ("derivative", "value"):
                row[f"bootstrap_{kind}_lanes_per_replicate"] = counts[f"{kind}_lanes"] / replicates
            with _Lanes(_pass_kernels()) as counts:
                wf.resample(values, fit, boot_b=0)
            for kind in ("derivative", "value"):
                row[f"jackknife_{kind}_lanes_per_row"] = counts[f"{kind}_lanes"] / values.size
            with _Lanes(_pass_kernels()) as counts:
                wf.run_workflow(sample, config)
            row["job_series_lanes"] = counts["series_lanes"]
            row["job_series_calls"] = counts["series_calls"]
            both()
            row["minflt"] = statistics.median(_minflt(both) for _ in range(3))
            for label, mask in (("one_cpu", one), ("all_cpus", every)):
                os.sched_setaffinity(0, mask)
                row[f"{label}_ms"] = 1e3 * _timed(both, repeats=5)["wall_s"]
            row["all_cpus_bootstrap_ms"] = 1e3 * _timed(
                lambda: wf.resample(values, fit, boot_b=999, seed=4, run_jackknife=False),
                repeats=5)["wall_s"]
            out[f"seed{seed}"] = row
    finally:
        os.sched_setaffinity(0, every)
    return out


def _children_usage():
    """(CPU seconds, minor page faults) of this process's reaped children and
    of its live resampling workers, where the tree keeps any."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu, minflt = kids.ru_utime + kids.ru_stime, kids.ru_minflt
    for worker in getattr(bm._fork, "_workers", ()):
        with open(f"/proc/{worker.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()  # from field 3, the state
        minflt += int(fields[7])
        cpu += (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    return cpu, minflt


def _stage_usage(stage) -> dict:
    """``stage()`` WORKER_WARMUP times untimed, then WORKER_CALLS times: the
    medians of its wall seconds and of this process's CPU seconds and minor
    faults per call, and its children's per call (their total over the calls
    divided by WORKER_CALLS, as a live worker's clock ticks are coarse)."""
    for _ in range(WORKER_WARMUP):
        stage()
    calls = []
    kids0 = _children_usage()
    for _ in range(WORKER_CALLS):
        own0 = resource.getrusage(resource.RUSAGE_SELF)
        w0 = time.perf_counter()
        stage()
        wall = time.perf_counter() - w0
        own1 = resource.getrusage(resource.RUSAGE_SELF)
        calls.append((wall, own1.ru_utime + own1.ru_stime - own0.ru_utime - own0.ru_stime,
                      own1.ru_minflt - own0.ru_minflt))
    kids1 = _children_usage()
    wall, cpu, minflt = (statistics.median(column) for column in zip(*calls))
    return {"wall_ms": 1e3 * wall, "parent_cpu_ms": 1e3 * cpu, "parent_minflt": minflt,
            "child_cpu_ms": 1e3 * (kids1[0] - kids0[0]) / WORKER_CALLS,
            "child_minflt": (kids1[1] - kids0[1]) / WORKER_CALLS}


def _floor(values, fit) -> dict:
    """The stages below the fork floor (see FLOOR_STAGES) on every CPU, in one
    process and split (``resampling.MIN_SHARE_VALUES`` patched), alternating:
    the median ms of each and the calls in which the split was faster."""
    resampling, floor = bm.resampling, bm.resampling.MIN_SHARE_VALUES
    out = {}
    try:
        for name, (boot_b, jackknife) in FLOOR_STAGES.items():
            stage = lambda: bm.workflow.resample(values, fit, boot_b=boot_b, seed=4,  # noqa: E731
                                                 run_jackknife=jackknife)
            times = {"one_process": [], "split": []}
            for call in range(WORKER_WARMUP + WORKER_CALLS):
                for label, value in (("one_process", 10**12), ("split", 1)):
                    resampling.MIN_SHARE_VALUES = value
                    w0 = time.perf_counter()
                    stage()
                    if call >= WORKER_WARMUP:
                        times[label].append(time.perf_counter() - w0)
            out[name] = {f"{label}_ms": 1e3 * statistics.median(t) for label, t in times.items()}
            out[name]["split_faster_in"] = sum(s < o for o, s in zip(*times.values()))
    finally:
        resampling.MIN_SHARE_VALUES = floor
    return out


def worker_stage() -> dict:
    """The worker report of this tree: per seed of WORKER_SEEDS, see the module docstring."""
    every = os.sched_getaffinity(0)
    one = {min(every)}
    out = {}
    try:
        for seed in WORKER_SEEDS:
            with tempfile.TemporaryDirectory() as directory:
                sample = _standard_input(seed, directory)
            values, fit = sample.values, bm.fit_gev(sample)
            row = {}
            for label, mask in (("one_cpu", one), ("all_cpus", every)):
                os.sched_setaffinity(0, mask)
                row[label] = _stage_usage(lambda: bm.workflow.resample(values, fit, boot_b=999, seed=4))
            row["floor"] = _floor(values, fit)
            out[f"seed{seed}"] = row
    finally:
        os.sched_setaffinity(0, every)
    return out


def _run_side(src, side) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    command = [sys.executable, __file__, "--side", side]
    proc = subprocess.run(command, env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def _median(values):
    if isinstance(values[0], dict):
        return {key: _median([v[key] for v in values]) for key in values[0]}
    if isinstance(values[0], (int, float)):
        return round(statistics.median(values), 6)
    return values[0]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _trees(src) -> dict:
    trees = {"change": ROOT / "src"}
    return trees if src is None else {"parent": Path(src).resolve(), **trees}


def _host() -> dict:
    return {"cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__}


def compare(label, src=None) -> dict:
    """The table for this tree ("change") and ``src`` ("parent"), in alternating fresh runs."""
    trees = _trees(src)
    runs = {side: [] for side in trees}
    for repeat in range(REPEATS):
        for side, tree in trees.items():
            runs[side].append(_run_side(tree, "slow" if repeat == 0 else "fast"))
            print(f"run {repeat + 1}/{REPEATS} {side} done", file=sys.stderr)
    results = {}
    for side, sides in runs.items():
        results[side] = _median([{k: v for k, v in s.items() if k in sides[1]} for s in sides])
        for slow in ("straggler_sweep", "crossover", "heavy_sweep_all_cpus_s"):
            if slow in sides[0]:
                results[side][slow] = sides[0][slow]
        results[side]["heavy_sweep_s"] = sides[0]["heavy_sweep"]["wall_s"]
    if src is not None:
        results["heavy_sweep"] = _agreement(runs["parent"][0]["heavy_sweep"],
                                            runs["change"][0]["heavy_sweep"])
    return {
        "label": label,
        "command": f"python benchmarks/bench_kernels.py --layers-json BENCH_{label}.json "
                   "--src <src of a checkout of the parent commit>",
        "cores": f"kernels, fit, counts, the sweep and the crossover on one CPU (pinned); "
                 f"stages, profiles and the heavy sweep on one CPU and on all "
                 f"{len(os.sched_getaffinity(0))} CPUs",
        "host": {"cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
                 "platform": platform.platform(), "python": platform.python_version(),
                 "numpy": np.__version__, "kernel_backend": _core.BACKEND},
        "input": "stages, counts and fit: bm.sample(GevParams(79, 21, 0), n=129, seed=101), the "
                 "README series; kernels: bm.sample(GevParams(80, 20, -0.05), n, seed=1); sweep: "
                 f"bm.sample(GevParams(0, 1, xi), n, seed) for (n, xi) in "
                 f"{[(n, xi) for n, xi, _ in SWEEP]}, seeds 0-9, bootstrap B={SWEEP_B}; crossover: "
                 "bm.sample(GevParams(79, 21, 0.1), n, seed=7), bootstrap B=999 seed 3 and the "
                 f"jackknife at n={JACKKNIFE_N}; profiles: "
                 "bm.sample(GevParams(79, 21, 0.1), n=129, seed=1); heavy sweep: the profiles "
                 f"{[name for name, _, _ in HEAVY_PROFILES]} of bm.sample(GevParams(0, 1, xi), n, "
                 f"seed) for (xi, n) in {list(HEAVY)}, seeds 0-17",
        "statistic": f"median of {REPEATS} runs per tree, each in a fresh interpreter, the trees "
                     "alternating; kernels best of 7 loops and stages median of 3 calls within a "
                     "run; profiles median of 5 calls within a run; the sweep, the crossover and "
                     "the heavy sweep from the first run only",
        "results": results,
    }


def compare_passes(label, src=None) -> dict:
    """The passes report of this tree ("change") and ``src`` ("parent"), in
    PASS_REPEATS alternating fresh runs of each, every number the median over
    the runs (the counts do not vary)."""
    trees = _trees(src)
    runs = {side: [] for side in trees}
    for repeat in range(PASS_REPEATS):
        for side, tree in trees.items():
            runs[side].append(_run_side(tree, "passes"))
            print(f"run {repeat + 1}/{PASS_REPEATS} {side} done", file=sys.stderr)
    return {
        "label": label,
        "command": f"python benchmarks/bench_kernels.py --passes-json BENCH_{label}.json "
                   "--src <src of a checkout of the parent commit>",
        "cores": "counts and page faults on one CPU (pinned); times on one CPU and on all "
                 f"{len(os.sched_getaffinity(0))} CPUs",
        "host": _host(),
        "input": "perfbench report-standard inputs (GEV(79, 21, 0), n=129) of seeds "
                 f"{', '.join(map(str, PASS_SEEDS))}; workflow.resample B=999 seed 4, the fit "
                 "fit_gev; the job run_workflow(model='gev', boot_b=999, seed=4)",
        "statistic": f"{PASS_REPEATS} runs per tree, each in a fresh interpreter, the trees "
                     "alternating; lane-passes (calls x lanes) of inference.gev_derivatives_rows "
                     "and gev_nllh_rows per bootstrap replicate (redraws included) or jackknife "
                     "row; series lanes and calls per job; minflt median of 3 calls and ms median "
                     "of 5 calls within a run (all_cpus_bootstrap_ms: the bootstrap without the "
                     "jackknife), then the median over the runs",
        "results": {side: _median(sides) for side, sides in runs.items()},
    }


def compare_worker(label, src=None) -> dict:
    """The worker report of this tree ("change") and ``src`` ("parent"), in
    WORKER_REPEATS alternating fresh runs of each, every number the median
    over the runs; ``ranges`` holds each number's range over the seeds."""
    runs = {side: [] for side in _trees(src)}
    for repeat in range(WORKER_REPEATS):
        for side, tree in _trees(src).items():
            runs[side].append(_run_side(tree, "worker"))
            print(f"run {repeat + 1}/{WORKER_REPEATS} {side} done", file=sys.stderr)
    results = {side: _median(sides) for side, sides in runs.items()}
    ranges = {}
    for side, seeds in results.items():
        for cpus in ("one_cpu", "all_cpus"):
            rows = [row[cpus] for row in seeds.values()]
            ranges[f"{side}.{cpus}"] = {key: [min(r[key] for r in rows), max(r[key] for r in rows)]
                                       for key in rows[0]}
    floor = {side: {stage: {key: statistics.median(row["floor"][stage][key] for row in seeds.values())
                            for key in ("one_process_ms", "split_ms")}
                    for stage in FLOOR_STAGES}
             for side, seeds in results.items()}
    for side, seeds in runs.items():
        for stage in FLOOR_STAGES:
            wins = sum(run[seed]["floor"][stage]["split_faster_in"] for run in seeds for seed in run)
            floor[side][stage]["split_faster_in"] = f"{wins} of {len(seeds) * len(seeds[0]) * WORKER_CALLS}"
    return {
        "label": label,
        "command": f"python benchmarks/bench_kernels.py --worker-json BENCH_{label}.json "
                   "--src <src of a checkout of the parent commit>",
        "cores": "one_cpu: pinned to one CPU, as taskset -c 0 (no split, no child); all_cpus: "
                 f"the {len(os.sched_getaffinity(0))} CPUs the process may use (the parent tree "
                 "forks a child per round, this tree sends the round to its warm worker)",
        "host": _host(),
        "input": "perfbench report-standard inputs (GEV(79, 21, 0), n=129) of seeds "
                 f"{WORKER_SEEDS.start}-{WORKER_SEEDS.stop - 1}; the stage "
                 "workflow.resample(values, fit_gev(values), boot_b=999, seed=4), jackknife on",
        "statistic": f"{WORKER_REPEATS} runs per tree, each in a fresh interpreter, the trees "
                     f"alternating; per seed and CPU set {WORKER_WARMUP} untimed calls, then "
                     f"{WORKER_CALLS} timed: wall, parent CPU and parent minflt the median per "
                     "call, child CPU and child minflt the total over the calls per call; then "
                     "the median over the runs.  floor: per stage the median over the seeds of "
                     "those medians, and the calls, over every seed and run, in which the split "
                     "was faster than the one-process call beside it",
        "results": results,
        "ranges": ranges,
        "floor": floor,
    }


def perfbench_pairs(workload, seeds, seconds, src) -> dict:
    """perfbench on ``workload`` for each seed in the checkout of ``src``
    ("parent") and in this one ("change"), the side that runs first
    alternating; the runs and, per end-to-end metric, the summary."""
    roots = {side: tree.parent for side, tree in _trees(src).items()}
    runs = {"parent": [], "change": []}
    for k, seed in enumerate(seeds):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds)], cwd=roots[side], capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[side].append({"seed": seed, "correct": result["correct"],
                               "attempted": result["attempted"], "failed": result["failed"],
                               **{name: m["value"] for name, m in result["metrics"].items()}})
            print(f"{workload} seed {seed} {side} done", file=sys.stderr)
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    metrics = {}
    for name, direction in better.items():
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(parent, change))
        p_q = statistics.quantiles(parent, n=4)
        metrics[name] = {
            "parent_median": statistics.median(parent), "parent_quartiles": [p_q[0], p_q[2]],
            "change_median": statistics.median(change),
            "change_quartiles": [statistics.quantiles(change, n=4)[i] for i in (0, 2)],
            "relative": statistics.median(change) / statistics.median(parent) - 1.0,
            "change_better_in": wins,
            "median_gap_exceeds_parent_quartile_spread":
                abs(statistics.median(change) - statistics.median(parent)) > p_q[2] - p_q[0],
        }
    return {
        "command": f"python3 perfbench/run.py --workload {workload} --seed S --seconds {seconds:g} "
                   "in a checkout of the parent and in this tree, the side that runs first "
                   "alternating from pair to pair",
        "seeds": f"{seeds[0]}-{seeds[-1]}", "pairs": len(seeds),
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "failed_operations": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "statistic": "quartiles by statistics.quantiles(n=4); change_better_in counts pairs, "
                     "ties for neither",
        "metrics": metrics,
        "runs": runs,
    }


def _report_output(tree, argv, cpus, directory) -> dict:
    """``blockmax report argv`` of ``tree`` in a fresh interpreter on ``cpus``:
    ``{name: bytes}`` of its output files, standard output, standard error and exit code."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    script = "import sys; from blockmax.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", script, "report", *argv, "--out-dir", "out"],
                          cwd=directory, env=dict(os.environ, PYTHONPATH=str(tree)), capture_output=True,
                          preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    out = {"<stdout>": proc.stdout, "<stderr>": proc.stderr, "<exit>": str(proc.returncode).encode()}
    if (directory / "out").is_dir():
        out.update((path.name, path.read_bytes()) for path in (directory / "out").iterdir())
    return out


def identity(seeds, src) -> bool:
    """Whether ``blockmax report`` writes the same bytes in this tree and in ``src``
    on every case, pinned to one CPU and to two; prints each case's verdict."""
    workloads = _perfbench("workloads")
    trees = _trees(src)
    allowed = sorted(os.sched_getaffinity(0))
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cases = {"maxima.txt": [str(ROOT / "tests" / "data" / "maxima.txt"), "--model", "gev",
                                "--boot-B", "999", "--seed", "4"]}
        for seed in seeds:
            directory = tmp / f"input_{seed}"
            directory.mkdir()
            (path,) = workloads.inputs.make_series(directory, seed, **workloads.STANDARD)
            cases[f"report-standard seed {seed}"] = [str(path), *workloads.REPORT_FLAGS, "--boot-B", "999"]
        for cpus in (allowed[:1], allowed[:2]):
            for case, argv in cases.items():
                parent, change = (_report_output(tree, argv, cpus, tmp / side)
                                  for side, tree in trees.items())
                differ = sorted(name for name in parent.keys() | change.keys()
                                if parent.get(name) != change.get(name))
                same &= not differ
                verdict = f"differ: {', '.join(differ)}" if differ else f"{len(change)} outputs identical"
                print(f"{len(cpus)} CPU {case}: {verdict}", flush=True)
    return same


def _proc_memory(pid) -> dict:
    """MB of ``pid``: VmRSS, RssAnon, VmHWM, and Pss and private pages from smaps_rollup."""
    out = {}
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            if key in ("VmRSS", "RssAnon", "VmHWM"):
                out[key] = int(value.split()[0]) / 1024.0
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
        rollup = {key: int(value.split()[0]) / 1024.0 for key, _, value in
                  (line.partition(":") for line in handle) if value.strip().endswith("kB")}
    out["Pss"] = rollup["Pss"]
    out["Private"] = rollup["Private_Clean"] + rollup["Private_Dirty"]
    return out


def _forked_children(pid) -> list:
    """The children of ``pid`` that it forked without exec (same command line)."""
    def cmdline(p):
        with open(f"/proc/{p}/cmdline", "rb") as handle:
            return handle.read()

    with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as handle:
        children = [int(c) for c in handle.read().split()]
    own = cmdline(pid)
    return [c for c in children if cmdline(c) == own]


def memory_run(root, seed, seconds) -> dict:
    """perfbench report-standard in ``root``, its process and forked children
    sampled from ``/proc`` every MEMORY_POLL_S (see the module docstring)."""
    proc = subprocess.Popen([sys.executable, "perfbench/run.py", "--workload", "report-standard",
                             "--seed", str(seed), "--seconds", str(seconds)],
                            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    samples = []
    while proc.poll() is None:
        try:
            children = _forked_children(proc.pid)
            samples.append({"parent": _proc_memory(proc.pid),
                            "children": [_proc_memory(c) for c in children]})
        except (FileNotFoundError, ProcessLookupError, KeyError):
            pass  # a process ended while it was read
        time.sleep(MEMORY_POLL_S)
    result = json.loads(proc.stdout.read().strip().splitlines()[-1])
    peak_rss_mb = result["metrics"]["peak_rss_mb"]["value"]
    loop = [s for s in samples if s["parent"]["VmHWM"] <= peak_rss_mb + 0.5]
    with_child = [s for s in loop if s["children"]]
    largest = {}
    for sample in with_child:
        for who, memory in (("parent", sample["parent"]), *(("child", c) for c in sample["children"])):
            for key, value in memory.items():
                largest.setdefault(who, {})[key] = max(largest.get(who, {}).get(key, 0.0), value)
    return {"seed": seed, "peak_rss_mb": peak_rss_mb,
            "jobs_per_s": result["metrics"]["jobs_per_s"]["value"],
            "samples_in_loop": len(loop), "samples_with_a_child": len(with_child),
            "last_with_a_child": with_child[-1] if with_child else None, "largest": largest}


def compare_memory(seeds, seconds, src) -> dict:
    """memory_run of ``src`` ("parent") and of this tree ("change") for each seed, alternating."""
    roots = {side: tree.parent for side, tree in _trees(src).items()}
    runs = {side: [] for side in roots}
    for k, seed in enumerate(seeds):
        for side in (list(roots) if k % 2 == 0 else list(roots)[::-1]):
            runs[side].append(memory_run(roots[side], seed, seconds))
            print(f"memory seed {seed} {side} done", file=sys.stderr)
    return {
        "command": f"python3 perfbench/run.py --workload report-standard --seed S --seconds "
                   f"{seconds:g}, its /proc read every {MEMORY_POLL_S:g} s",
        "fields": "MB; VmRSS, RssAnon, VmHWM from /proc/<pid>/status; Pss and Private "
                  "(Private_Clean + Private_Dirty) from /proc/<pid>/smaps_rollup; parent: the "
                  "perfbench process, child: a process it forked (a resampling worker, or a "
                  "per-round child); peak_rss_mb is perfbench's own (RUSAGE_SELF)",
        "host": _host(),
        "runs": runs,
    }


def _print(table: dict, indent=""):
    for key, value in table.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print(value, indent + "  ")
        else:
            print(f"{indent}{key}: {value:.6g}" if isinstance(value, float) else f"{indent}{key}: {value}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--layers-json", default=None,
                        help="write the table of this tree (and of --src) to this file")
    parser.add_argument("--passes-json", default=None,
                        help="write the passes report of this tree (and of --src) to this file")
    parser.add_argument("--worker-json", default=None,
                        help="write the worker report of this tree (and of --src) to this file")
    parser.add_argument("--pairs-json", default=None,
                        help="add perfbench pairs of this tree and --src to this file")
    parser.add_argument("--one-path-json", default=None,
                        help="write the one-path report of this tree to this file")
    parser.add_argument("--memory-json", default=None,
                        help="add the memory of perfbench runs of this tree and --src to this file")
    parser.add_argument("--identity", action="store_true",
                        help="compare blockmax report output of this tree and --src byte for byte")
    parser.add_argument("--workload", default="report-standard", help="perfbench workload of the pairs")
    parser.add_argument("--seeds", default=None, help="perfbench seeds of the pairs, A-B")
    parser.add_argument("--seconds", type=float, default=50.0, help="seconds per perfbench run")
    parser.add_argument("--src", default=None, help="src directory of the tree to compare against")
    parser.add_argument("--side", choices=["fast", "slow", "passes", "worker"], help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.side:  # one run, in its own interpreter
        sides = {"passes": passes, "worker": worker_stage}
        json.dump(sides[args.side]() if args.side in sides else layers(args.side == "slow"), sys.stdout)
    elif args.worker_json is not None:
        path = Path(args.worker_json)
        kept = json.loads(path.read_text()) if path.exists() else {}
        report = compare_worker(path.stem.removeprefix("BENCH_"), args.src)
        for key in ("perfbench_pairs", "memory"):
            if key in kept:
                report[key] = kept[key]
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    elif args.identity:
        if args.src is None or args.seeds is None:
            parser.error("--identity needs --src and --seeds")
        first, last = map(int, args.seeds.split("-"))
        sys.exit(0 if identity(list(range(first, last + 1)), args.src) else 1)
    elif args.one_path_json is not None:
        Path(args.one_path_json).write_text(json.dumps(one_path(), indent=2) + "\n")
        print(f"wrote {args.one_path_json}", file=sys.stderr)
    elif args.pairs_json is not None:
        if args.src is None or args.seeds is None:
            parser.error("--pairs-json needs --src and --seeds")
        first, last = map(int, args.seeds.split("-"))
        path = Path(args.pairs_json)
        report = json.loads(path.read_text()) if path.exists() else {}
        report.setdefault("perfbench_pairs", {})[args.workload] = perfbench_pairs(
            args.workload, list(range(first, last + 1)), args.seconds, args.src)
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    elif args.memory_json is not None:
        if args.src is None or args.seeds is None:
            parser.error("--memory-json needs --src and --seeds")
        first, last = map(int, args.seeds.split("-"))
        path = Path(args.memory_json)
        report = json.loads(path.read_text()) if path.exists() else {}
        report["memory"] = compare_memory(list(range(first, last + 1)), args.seconds, args.src)
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    elif args.passes_json is not None:
        report = compare_passes(Path(args.passes_json).stem.removeprefix("BENCH_"), args.src)
        Path(args.passes_json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.passes_json}", file=sys.stderr)
    elif args.layers_json is None:
        _print(layers(slow=False))
    else:
        report = compare(Path(args.layers_json).stem.removeprefix("BENCH_"), args.src)
        Path(args.layers_json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.layers_json}", file=sys.stderr)
