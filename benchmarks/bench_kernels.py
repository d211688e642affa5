"""Benchmark: compiled likelihood kernels vs the numpy fallback, and refits.

Times raw kernel evaluations at several sample sizes, one bootstrap (Gumbel
refit statistic, one refit at a time) per backend, the resampling stages of
the standard case with the batched replicate engine against the
one-refit-at-a-time loop, and the scalar search (kernels, fits, profiles)
against the frozen array formulation in ``tests/frozen_scalar_search.py``,
and the refit stages pinned to one CPU against all of them.  Run as:

    python benchmarks/bench_kernels.py                     # print everything
    python benchmarks/bench_kernels.py --refits-json BENCH_batched_refits.json
    python benchmarks/bench_kernels.py --scalar-json BENCH_scalar_search.json
    python benchmarks/bench_kernels.py --cores-json BENCH_two_core.json

The last three forms run only the refit, the scalar or the one-CPU against
all-CPU section and write it, with the host facts, to the named file.
"""

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import numpy as np

import blockmax as bm
from blockmax import _core


def best_of(fn, repeats=5, inner=200):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def bench_kernels():
    print(f"available backends: {sorted(_core.BACKENDS)}")
    rows = []
    for n in (129, 2000, 10_000):
        x = bm.sample(bm.GevParams(80.0, 20.0, -0.05), n, seed=1).values
        for name, impl in sorted(_core.BACKENDS.items()):
            t_gum = best_of(lambda: impl.gumbel_nllh(x, 80.0, 20.0))
            t_gev = best_of(lambda: impl.gev_nllh(x, 80.0, 20.0, -0.05))
            rows.append((n, name, t_gum * 1e6, t_gev * 1e6))
    print(f"\n{'n':>6}  {'backend':<9} {'gumbel_nllh':>12} {'gev_nllh':>12}   (us/call)")
    for n, name, t_gum, t_gev in rows:
        print(f"{n:>6}  {name:<9} {t_gum:>12.2f} {t_gev:>12.2f}")
    for n in (129, 2000, 10_000):
        times = {name: t for m, name, t, _ in rows if m == n}
        if "compiled" in times:
            print(f"  n={n}: compiled is {times['python'] / times['compiled']:.1f}x "
                  "faster on gumbel_nllh")


def bench_bootstrap():
    sample = bm.sample(bm.GevParams(80.0, 20.0, 0.0), 129, seed=2)
    stat = lambda v: bm.fit_gumbel(v, compute_se=False).theta
    print("\nbootstrap (B=100, n=129, Gumbel refit statistic):")
    active = _core.BACKEND
    for name in sorted(_core.BACKENDS):
        _core.use_backend(name)
        t0 = time.perf_counter()
        rep = bm.bootstrap(sample, stat, b=100, seed=7)
        dt = time.perf_counter() - t0
        print(f"  {name:<9} {dt:6.2f} s   bias={np.round(rep.bias, 5)}")
    _core.use_backend(active)


# -- batched refits against the one-at-a-time loop -------------------------------

REFIT_REPEATS = 3


class _Loop:
    """A refit statistic without ``rows``: resampling falls back to its loop."""

    def __init__(self, model):
        self.refit = bm.Refit(model)

    def __call__(self, values):
        return self.refit(values)


@contextlib.contextmanager
def _workflow_refit(make_statistic):
    # run_workflow builds its statistic as workflow.Refit(model)
    saved = bm.workflow.Refit
    bm.workflow.Refit = make_statistic
    try:
        yield
    finally:
        bm.workflow.Refit = saved


def _pin_one_cpu():
    """Pin this process to one CPU where the OS allows it; the CPU, or None."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _timed(fn):
    """(median wall s, median CPU s, last result) over REFIT_REPEATS runs."""
    walls, cpus = [], []
    for _ in range(REFIT_REPEATS):
        w0, c0 = time.perf_counter(), time.process_time()
        out = fn()
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
    return statistics.median(walls), statistics.median(cpus), out


def _same_report(a, b):
    if isinstance(a, dict):
        return a == b
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("estimate", "bias", "se", "ratio", "rmse", "corrected")) \
        and (a.failed, a.failures) == (b.failed, b.failures)


def bench_refits() -> dict:
    """The standard case's resampling, batched ``Refit`` against the per-row loop.

    The README series (n=129): bootstrap B=999 (seed 4) and the jackknife for
    both models, and ``run_workflow`` with the GEV model forced, B=999.
    """
    cpu = _pin_one_cpu()
    sample = bm.sample(bm.GevParams(79.0, 21.0, 0.0), 129, seed=101)
    config = bm.WorkflowConfig(model="gev", boot_b=999, seed=4)

    def workflow(make_statistic):
        with _workflow_refit(make_statistic):
            return bm.run_workflow(sample, config)

    # each case runs with a statistic class: _Loop (per-row loop) or bm.Refit (batched)
    cases = {}
    for model in ("gev", "gumbel"):
        cases[f"bootstrap_b999_{model}"] = \
            lambda make, m=model: bm.bootstrap(sample, make(m), b=999, seed=4)
        cases[f"jackknife_{model}"] = lambda make, m=model: bm.jackknife(sample, make(m))
    cases["run_workflow_gev_b999"] = workflow
    results = {}
    print(f"\nrefits at n=129, median of {REFIT_REPEATS}, single core (CPU {cpu}):")
    print(f"{'stage':<22} {'loop s':>8} {'batched s':>10} {'speed-up':>9}  (wall; CPU in the JSON)")
    for name, run in cases.items():
        loop = _timed(lambda: run(_Loop))
        batched = _timed(lambda: run(bm.Refit))
        results[name] = {
            "loop_wall_s": round(loop[0], 4),
            "loop_cpu_s": round(loop[1], 4),
            "batched_wall_s": round(batched[0], 4),
            "batched_cpu_s": round(batched[1], 4),
            "speedup_wall": round(loop[0] / batched[0], 2),
            "identical_output": _same_report(loop[2], batched[2]),
        }
        print(f"{name:<22} {loop[0]:>8.3f} {batched[0]:>10.3f} {loop[0] / batched[0]:>8.1f}x")
    return {
        "label": "batched_refits",
        "command": "python benchmarks/bench_kernels.py --refits-json BENCH_batched_refits.json",
        "cores": SINGLE_CORE,
        "host": _host(cpu),
        "input": "bm.sample(GevParams(79, 21, 0), n=129, seed=101), the README series",
        "statistic": f"median of {REFIT_REPEATS} runs; wall and process CPU seconds",
        "engines": {
            "loop": "one scalar Nelder-Mead refit per replicate (a statistic without rows)",
            "batched": "Refit.rows: lockstep Nelder-Mead over gathered sample rows",
        },
        "results": results,
    }


SINGLE_CORE = ("single-core: the process is pinned to one CPU and numpy runs these "
               "elementwise ufuncs on one thread")


def _host(cpu) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "pinned_cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": _core.BACKEND,
        "backends_available": sorted(_core.BACKENDS),
    }


# -- scalar search against its frozen array formulation ---------------------------

SCALAR_REPEATS = 7


def _frozen():
    """``tests/frozen_scalar_search.py``: the array search and kernels, as a module."""
    path = Path(__file__).resolve().parent.parent / "tests" / "frozen_scalar_search.py"
    spec = importlib.util.spec_from_file_location("frozen_scalar_search", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _search(impl):
    """Run fits and profiles on ``impl``'s minimize and kernels (the seams callers look up)."""
    inference = bm.inference
    saved = inference.minimize, _core.gev_nllh, _core.gumbel_nllh
    inference.minimize, _core.gev_nllh, _core.gumbel_nllh = impl.minimize, impl.gev_nllh, impl.gumbel_nllh
    try:
        yield
    finally:
        inference.minimize, _core.gev_nllh, _core.gumbel_nllh = saved


def _paired(fn, impls, repeats):
    """Median wall seconds per implementation, the runs alternating; last results."""
    times = {name: [] for name in impls}
    out = {}
    for _ in range(repeats):
        for name, impl in impls.items():
            with _search(impl):
                t0 = time.perf_counter()
                out[name] = fn()
                times[name].append(time.perf_counter() - t0)
    return {name: statistics.median(t) for name, t in times.items()}, out


def bench_scalar() -> dict:
    """Kernels, ``fit_gev`` and ``profile``: frozen array search against the live one.

    Everything runs on the numpy kernels, single core.  The profile's restricted
    objective is the live one on both sides, so the profile rows time the
    search and the kernels only.
    """
    cpu = _pin_one_cpu()
    active = _core.BACKEND
    _core.use_backend("python")
    frozen = _frozen()
    kernels = _core.BACKENDS["python"]
    live = types.SimpleNamespace(minimize=bm.simplex.minimize, gev_nllh=kernels.gev_nllh,
                                 gumbel_nllh=kernels.gumbel_nllh)
    impls = {"array": frozen, "plain_float": live}
    results = {"kernel_us": {}, "fit_gev": {}, "profile_s": {}}
    try:
        print(f"\nscalar search, frozen array formulation vs live, single core (CPU {cpu}):")
        for n in (129, 2000, 10_000):
            x = bm.sample(bm.GevParams(80.0, 20.0, -0.05), n, seed=1).values
            inner = max(20, 200_000 // n)
            for kernel, args in (("gev_nllh", (80.0, 20.0, -0.05)), ("gumbel_nllh", (80.0, 20.0))):
                best = dict.fromkeys(impls, float("inf"))
                for _ in range(SCALAR_REPEATS):  # alternate, so host drift hits both alike
                    for name, impl in impls.items():
                        fn = getattr(impl, kernel)
                        best[name] = min(best[name], best_of(lambda: fn(x, *args), 1, inner))
                row = {name: round(1e6 * t, 3) for name, t in best.items()}
                row["identical_output"] = getattr(frozen, kernel)(x, *args) == getattr(live, kernel)(x, *args)
                results["kernel_us"][f"{kernel}.n{n}"] = row
                print(f"  {kernel:<12} n={n:<6} {row['array']:>8.2f} -> {row['plain_float']:>8.2f} us/call")

        sample = bm.sample(bm.GevParams(79.0, 21.0, 0.0), 129, seed=101)
        fits = 20
        wall, last = _paired(lambda: [bm.fit_gev(sample, compute_se=False) for _ in range(fits)],
                             impls, SCALAR_REPEATS)
        a, b = last["array"][-1].opt, last["plain_float"][-1].opt
        results["fit_gev"] = {
            "array_ms": round(1e3 * wall["array"] / fits, 3),
            "plain_float_ms": round(1e3 * wall["plain_float"] / fits, 3),
            "evaluations": b.evaluations,
            "iterations": b.iterations,
            "identical_output": a.x_min.tobytes() == b.x_min.tobytes() and a.iterations == b.iterations,
        }
        r = results["fit_gev"]
        print(f"  fit_gev      n=129    {r['array_ms']:>8.2f} -> {r['plain_float_ms']:>8.2f} ms "
              f"({r['evaluations']} evaluations, {r['iterations']} iterations)")

        fit = bm.fit_gev(sample)
        for label, kwargs in (("xi", dict(which="xi")),
                              ("level100", dict(which="return_level", p=0.01))):
            wall, last = _paired(lambda: bm.profile(sample, "gev", fit=fit, **kwargs), impls, 3)
            a, b = last["array"], last["plain_float"]
            results["profile_s"][label] = {
                "array": round(wall["array"], 4),
                "plain_float": round(wall["plain_float"], 4),
                "grid_points": int(b.grid.size),
                "identical_output": all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
                                        for f in ("grid", "lp")) and a.ci == b.ci,
            }
            r = results["profile_s"][label]
            print(f"  profile {label:<8}       {r['array']:>8.3f} -> {r['plain_float']:>8.3f} s "
                  f"({r['grid_points']} grid points)")
    finally:
        _core.use_backend(active)
    return {
        "label": "scalar_search",
        "command": "python benchmarks/bench_kernels.py --scalar-json BENCH_scalar_search.json",
        "cores": SINGLE_CORE,
        "host": _host(cpu),
        "input": "kernels: bm.sample(GevParams(80, 20, -0.05), n, seed=1) at (80, 20, -0.05); "
                 "fits and profiles: bm.sample(GevParams(79, 21, 0), n=129, seed=101)",
        "statistic": f"kernels: best of {SCALAR_REPEATS} loops each; fit_gev: median of {SCALAR_REPEATS} "
                     "loops of 20 fits; profile: median of 3; array and plain_float runs alternate",
        "engines": {
            "array": "tests/frozen_scalar_search.py: Nelder-Mead on numpy arrays, "
                     "kernels allocating a temporary per step",
            "plain_float": "simplex._run on lists of floats, in-place kernels",
        },
        "results": results,
    }


# -- refits on one CPU against every CPU the process may use -----------------------

CORES_REPEATS = 5


def _cpu_seconds():
    """(this process, its reaped children) user + system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def _same_output(a, b):
    if isinstance(a, bm.ProfileCurve):
        return a.grid.tobytes() == b.grid.tobytes() and a.lp.tobytes() == b.lp.tobytes() \
            and a.ci == b.ci
    return _same_report(a, b)


def bench_cores() -> dict:
    """Refit stages pinned to one CPU against every CPU this process may use.

    On more than one CPU the bootstrap and jackknife batches and the two
    profile walks are split between this process and forked children.  The
    affinity is set with ``os.sched_setaffinity`` on this process, before each
    run, so the children inherit it; the one-CPU and all-CPU runs alternate.
    """
    every = os.sched_getaffinity(0)
    masks = {"one_cpu": {min(every)}, "all_cpus": every}
    sample = bm.sample(bm.GevParams(79.0, 21.0, 0.0), 129, seed=101)
    fit = bm.fit_gev(sample)
    config = bm.WorkflowConfig(model="gev", boot_b=999, seed=4)
    cases = {
        "bootstrap_b999_gev": lambda: bm.bootstrap(sample, bm.Refit("gev"), b=999, seed=4),
        "jackknife_gev": lambda: bm.jackknife(sample, bm.Refit("gev")),
        "profile_xi": lambda: bm.profile(sample, "gev", which="xi", fit=fit),
        "profile_level100": lambda: bm.profile(sample, "gev", which="return_level", p=0.01, fit=fit),
        "run_workflow_gev_b999": lambda: bm.run_workflow(sample, config),
    }
    results = {}
    print(f"\nrefits at n=129 on one CPU and on {len(every)}, median of {CORES_REPEATS}:")
    print(f"{'stage':<22} {'1 CPU s':>8} {'all s':>8} {'speed-up':>9} {'parent+child CPU s':>19}")
    try:
        for name, run in cases.items():
            samples = {label: [] for label in masks}
            out = {}
            for _ in range(CORES_REPEATS):
                for label, mask in masks.items():
                    os.sched_setaffinity(0, mask)
                    c0, k0 = _cpu_seconds()
                    w0 = time.perf_counter()
                    out[label] = run()
                    wall = time.perf_counter() - w0
                    c1, k1 = _cpu_seconds()
                    samples[label].append((wall, c1 - c0, k1 - k0))
            row = {}
            for label, runs in samples.items():
                wall, own, kids = (statistics.median(col) for col in zip(*runs))
                row[label] = {"wall_s": round(wall, 4), "parent_cpu_s": round(own, 4),
                              "child_cpu_s": round(kids, 4)}
            row["speedup_wall"] = round(row["one_cpu"]["wall_s"] / row["all_cpus"]["wall_s"], 2)
            row["identical_output"] = _same_output(out["one_cpu"], out["all_cpus"])
            results[name] = row
            a = row["all_cpus"]
            print(f"{name:<22} {row['one_cpu']['wall_s']:>8.3f} {a['wall_s']:>8.3f} "
                  f"{row['speedup_wall']:>8.2f}x {a['parent_cpu_s']:>9.3f}+{a['child_cpu_s']:<9.3f}")
    finally:
        os.sched_setaffinity(0, every)
    return {
        "label": "two_core",
        "command": "python benchmarks/bench_kernels.py --cores-json BENCH_two_core.json",
        "cores": f"one CPU (pinned) against all {len(every)} CPUs this process may use",
        "host": _host(None),
        "input": "bm.sample(GevParams(79, 21, 0), n=129, seed=101), the README series",
        "statistic": f"median of {CORES_REPEATS} runs each, one-CPU and all-CPU runs alternating; "
                     "wall seconds, and user+system CPU seconds of this process and of its "
                     "reaped children (RUSAGE_CHILDREN)",
        "results": results,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--refits-json", default=None,
                        help="run only the refit section and write it to this file")
    parser.add_argument("--scalar-json", default=None,
                        help="run only the scalar search section and write it to this file")
    parser.add_argument("--cores-json", default=None,
                        help="run only the one-CPU against all-CPU section and write it to this file")
    args = parser.parse_args()
    sections = [(bench_refits, args.refits_json), (bench_scalar, args.scalar_json),
                (bench_cores, args.cores_json)]
    if not any(path for _, path in sections):
        bench_kernels()
        bench_bootstrap()
        bench_cores()  # the next two pin this process to one CPU for good
        bench_refits()
        bench_scalar()
    for bench, path in sections:
        if path is not None:
            report = bench()
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2)
                handle.write("\n")
            print(f"wrote {path}", file=sys.stderr)
