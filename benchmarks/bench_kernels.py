"""Benchmark: the per-layer table of blockmax, for this tree or against another.

    python benchmarks/bench_kernels.py                          # print the table
    python benchmarks/bench_kernels.py --layers-json BENCH_newton.json \
        --src <the src directory of another checkout>

The table holds, for the source tree it runs on:

* kernel us per call of ``gev_nllh``/``gumbel_nllh`` (the active backend) and
  of one derivative pass (``likelihood.gev_derivatives_rows`` on one lane,
  where the tree has it) at n = 129, 2000 and 10 000, best of 7 loops;
* one ``fit_gev`` at n=129: ms (median of 20) and objective evaluations;
* the bootstrap (B=999) and the jackknife stage of ``workflow.resample`` and
  ``run_workflow`` (GEV forced, B=999) on the README series, on one CPU and
  on every CPU the process may use: wall seconds, and user+system CPU
  seconds of this process and of its reaped children (RUSAGE_CHILDREN);
* the refit counts of the standard case on one CPU (``Refit.counts``: rows
  refitted by Newton, their derivative passes and the fallbacks by cause).

With ``--layers-json`` each tree (this one as "change", ``--src`` as
"parent") runs in fresh interpreters, the sides alternating, REPEATS times,
and the file gets the medians with the host facts.  The first run of each
tree also takes the slow parts, on one CPU: a straggler sweep of small,
strongly bounded or heavy-tailed samples (wall time, outcomes and refit
counts) and, for a tree with Newton refits, bootstrap B=999 at n = 2048 to
10 000 through the batched path and through the one-at-a-time loop.
``best_of`` is also the kernel timer of ``perfbench/run.py``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import blockmax as bm
from blockmax import _core

REPEATS = 5
SIZES = (129, 2000, 10_000)
CROSS_SIZES = (2048, 4096, 8192, 10_000)
# (n, xi, seeds): samples where refits fail or straggle
SWEEP = ((12, -0.8, range(10)), (12, 0.5, range(10)), (15, 1.0, range(10)))
SWEEP_B = 400


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


def _crossover() -> dict:
    """Bootstrap B=999 of long samples, the batched path against the loop (same report)."""
    resampling = bm.resampling
    real = resampling._batched
    out = {}
    try:
        for n in CROSS_SIZES:
            values = bm.sample(bm.GevParams(79.0, 21.0, 0.1), n, seed=7).values
            fit = bm.fit_gev(values)
            reports = []
            for path in ("loop", "batched"):
                resampling._batched = lambda statistic, n, path=path: path == "batched"
                refit = bm.workflow.Refit(fit.model, start=fit.theta)
                t0 = time.perf_counter()
                reports.append(bm.bootstrap(values, refit, b=999, seed=3))
                out[f"n{n}.{path}_s"] = time.perf_counter() - t0
            assert reports[0].se.tobytes() == reports[1].se.tobytes(), n
    finally:
        resampling._batched = real
    return out


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
        if slow:
            side["straggler_sweep"] = _sweep()
            if hasattr(bm.likelihood, "gev_derivatives_rows"):  # a tree with Newton refits
                side["crossover"] = _crossover()
    finally:
        os.sched_setaffinity(0, every)
    return side


def _run_side(src, slow) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    command = [sys.executable, __file__, "--side", "slow" if slow else "fast"]
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


def compare(src=None) -> dict:
    """The table for this tree ("change") and ``src`` ("parent"), in alternating fresh runs."""
    trees = {"change": Path(__file__).resolve().parent.parent / "src"}
    if src is not None:
        trees = {"parent": Path(src).resolve(), **trees}
    runs = {label: [] for label in trees}
    for repeat in range(REPEATS):
        for label, tree in trees.items():
            runs[label].append(_run_side(tree, slow=repeat == 0))
            print(f"run {repeat + 1}/{REPEATS} {label} done", file=sys.stderr)
    results = {}
    for label, sides in runs.items():
        results[label] = _median([{k: v for k, v in s.items() if k in sides[1]} for s in sides])
        for slow in ("straggler_sweep", "crossover"):
            if slow in sides[0]:
                results[label][slow] = sides[0][slow]
    return {
        "label": "newton",
        "command": "python benchmarks/bench_kernels.py --layers-json BENCH_newton.json "
                   "--src <src of a checkout of the parent commit>",
        "cores": f"kernels, fit, counts, the sweep and the crossover on one CPU (pinned); "
                 f"stages on one CPU and on all {len(os.sched_getaffinity(0))} CPUs",
        "host": {"cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
                 "platform": platform.platform(), "python": platform.python_version(),
                 "numpy": np.__version__, "kernel_backend": _core.BACKEND},
        "input": "stages, counts and fit: bm.sample(GevParams(79, 21, 0), n=129, seed=101), the "
                 "README series; kernels: bm.sample(GevParams(80, 20, -0.05), n, seed=1); sweep: "
                 f"bm.sample(GevParams(0, 1, xi), n, seed) for (n, xi) in "
                 f"{[(n, xi) for n, xi, _ in SWEEP]}, seeds 0-9, bootstrap B={SWEEP_B}; crossover: "
                 "bm.sample(GevParams(79, 21, 0.1), n, seed=7), bootstrap B=999 seed 3",
        "statistic": f"median of {REPEATS} runs per tree, each in a fresh interpreter, the trees "
                     "alternating; kernels best of 7 loops and stages median of 3 calls within a "
                     "run; the sweep and the crossover from the first run only",
        "results": results,
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
    parser.add_argument("--src", default=None, help="src directory of the tree to compare against")
    parser.add_argument("--side", choices=["fast", "slow"], help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.side:  # one run, in its own interpreter
        json.dump(layers(args.side == "slow"), sys.stdout)
    elif args.layers_json is None:
        _print(layers(slow=False))
    else:
        report = compare(args.src)
        Path(args.layers_json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.layers_json}", file=sys.stderr)
