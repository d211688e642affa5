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

With ``--layers-json`` each tree (this one as "change", ``--src`` as
"parent") runs in fresh interpreters, the sides alternating, REPEATS times,
and the file gets the medians with the host facts.  The first run of each
tree also takes the slow parts, on one CPU: a straggler sweep of small,
strongly bounded or heavy-tailed samples (wall time, outcomes and refit
counts), for a tree with Newton refits, bootstrap B=999 at n = 2048 to
10 000 through the batched path and through the one-at-a-time loop, the
heavy-tailed profile sweep (xi and the 100-block level of GEV(0, 1, 0.3)
samples of 40 and GEV(0, 1, 0.4) samples of 30, seeds 0-17), timed on one
CPU and, where the process may use two, again on every CPU.  With ``--src``
the file also gets the agreement of the two trees' heavy sweeps: interval
shifts, worse optima and fallbacks by cause.
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
PROFILES = (("xi", None), ("level10", 0.1), ("level40", 0.025), ("level100", 0.01))
# (xi, n): heavy-tailed samples whose profiles branch, seeds 0-17
HEAVY = ((0.3, 40), (0.4, 30))
HEAVY_SEEDS = range(18)
# ProfileCurve.counts keys that are not fallback causes
_NOT_FALLBACKS = ("newton", "steps", "waves")


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
    """Profiles of xi and of the 100-block level on heavy-tailed samples, one CPU.

    Per case: the grid, the profile log-likelihoods (read where the interval
    is formed, so a grid that does not bracket keeps them), the interval or
    the side that failed, and the curve's counts where the tree has them.
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
                for name, p in (("xi", None), ("level100", 0.01)):
                    formed.clear()
                    case = {"lhat": -fit.nllh}
                    try:
                        curve = inference.profile(values, "gev", "xi" if p is None else "return_level",
                                                  p=p, fit=fit)
                        case["ci"] = list(curve.ci)
                        case["counts"] = dict(getattr(curve, "counts", {}))
                    except inference.ProfileBracketError as error:
                        case["unbracketed"] = error.side
                    out[f"xi{xi}_n{n}_seed{seed}_{name}"] = {**case, **formed}
        wall = time.perf_counter() - t0
    finally:
        profiles._deviance_interval = interval
    return {"wall_s": wall, "cases": out}


def _agreement(parent: dict, change: dict) -> dict:
    """The heavy sweep of the change against the parent's, case by case.

    Intervals are compared in units of the parent's width where the parent
    left no grid point on the penalty surface; the nllh of the change is
    compared at every shared grid point, split at a deviance of twice the
    critical value.  Fallbacks are counted by cause in each tree.
    """
    critical = bm.special.chi2_quantile(0.95, 1)
    shift, near, far, far_gap, penalized = 0.0, 0, 0, 0.0, {}
    fallbacks = {"parent": Counter(), "change": Counter()}
    points = 0
    for name, old in parent["cases"].items():
        new = change["cases"][name]
        for tree, case in (("parent", old), ("change", new)):
            fallbacks[tree].update({k: v for k, v in case.get("counts", {}).items()
                                    if k not in _NOT_FALLBACKS})
        old_lp = dict(zip(old["grid"], old["lp"]))
        points += len(new["grid"])
        for g, lp in zip(new["grid"], new["lp"]):
            if g in old_lp and -lp > -old_lp[g] + 1e-9 * abs(old_lp[g]):
                if 2.0 * (new["lhat"] - lp) <= 2.0 * critical:
                    near += 1
                else:
                    far += 1
                    far_gap = max(far_gap, old_lp[g] - lp)
        on_penalty = sum(lp <= -bm.likelihood.PENALTY for lp in old["lp"])
        if on_penalty:
            penalized[name] = {"parent_penalized_points": on_penalty,
                               "parent": old.get("ci", old.get("unbracketed")),
                               "change": new.get("ci", new.get("unbracketed"))}
        elif "ci" in old and "ci" in new:
            width = old["ci"][1] - old["ci"][0]
            shift = max(shift, max(abs(a - b) for a, b in zip(old["ci"], new["ci"])) / width)
        elif old.get("unbracketed") != new.get("unbracketed"):
            penalized[name] = {"parent": old.get("ci", old.get("unbracketed")),
                               "change": new.get("ci", new.get("unbracketed"))}
    return {
        "critical": critical,
        "cases": len(parent["cases"]),
        "grid_points": points,
        "max_ci_shift_per_width": shift,
        "worse_nllh_points_within_2x_critical": near,
        "worse_nllh_points_beyond": far,
        "worse_nllh_largest_gap_beyond": far_gap,
        "fallbacks": {tree: dict(counts) for tree, counts in fallbacks.items()},
        "cases_with_penalized_parent_points": penalized,
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


def compare(label, src=None) -> dict:
    """The table for this tree ("change") and ``src`` ("parent"), in alternating fresh runs."""
    trees = {"change": Path(__file__).resolve().parent.parent / "src"}
    if src is not None:
        trees = {"parent": Path(src).resolve(), **trees}
    runs = {side: [] for side in trees}
    for repeat in range(REPEATS):
        for side, tree in trees.items():
            runs[side].append(_run_side(tree, slow=repeat == 0))
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
                 "bm.sample(GevParams(79, 21, 0.1), n, seed=7), bootstrap B=999 seed 3; profiles: "
                 "bm.sample(GevParams(79, 21, 0.1), n=129, seed=1); heavy sweep: "
                 f"bm.sample(GevParams(0, 1, xi), n, seed) for (xi, n) in {list(HEAVY)}, seeds 0-17",
        "statistic": f"median of {REPEATS} runs per tree, each in a fresh interpreter, the trees "
                     "alternating; kernels best of 7 loops and stages median of 3 calls within a "
                     "run; profiles median of 5 calls within a run; the sweep, the crossover and "
                     "the heavy sweep from the first run only",
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
        report = compare(Path(args.layers_json).stem.removeprefix("BENCH_"), args.src)
        Path(args.layers_json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.layers_json}", file=sys.stderr)
