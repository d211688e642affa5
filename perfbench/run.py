"""Layered benchmark for blockmax.

    python3 perfbench/run.py --workload report-standard --seed 1 --seconds 50 --trace 0

Runs one workload from the repository root: writes its inputs from
``--seed``, times the set-up (cold process start, ``import blockmax``, ingest
of the inputs) in fresh processes, loads the inputs once, then runs jobs back
to back in this one process (a closed loop with a single client) until
``--seconds`` of wall time have passed.  The package is imported from
``src/`` of the checkout this file sits in; nothing is built or installed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
untraced jobs for a third of the time, then wraps the package's layer
boundaries (see ``tracing.py``) for the rest and reports the per-layer
metrics, the kernel microbenchmark and the tracing overhead; its spans go to
``.perfbench_out/spans-<workload>-seed<seed>.jsonl``.

Correctness checks run after the timed region; if any fails the result says
``"correct": false`` and the exit code is 1.  The last line of standard
output is the result as one JSON object.  Human-readable lines before it give
the host facts, every metric with its unit and sample counts.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
SCIPY_CHECKED_INPUTS = 24  # stations-screen: cross-check the first 24 files
KERNEL_SIZES = (129, 2000, 10_000)

END_TO_END_UNITS = {
    "setup_s": "s", "job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s",
    "cpu_per_job_s": "s", "peak_rss_mb": "MB",
}

SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import blockmax, blockmax.cli\n"
    "for path in sys.argv[2:]:\n"
    "    blockmax.ingest(path)\n"
)


def import_blockmax():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "blockmax" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no blockmax package at {SRC / 'blockmax'}")
    sys.path.insert(0, str(SRC))
    import blockmax
    import blockmax.cli  # noqa: F401 - the report workload's entry point

    if Path(blockmax.__file__).resolve().parent != (SRC / "blockmax").resolve():
        raise SystemExit(f"perfbench: imported blockmax from {blockmax.__file__}, not {SRC}")
    return blockmax


def host_facts(bm) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    compiled = "compiled" in bm._core.BACKENDS
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": bm.KERNEL_BACKEND,
        "compiled_extension_importable": compiled,
        "cython_installed": importlib.util.find_spec("Cython") is not None,
        "BLOCKMAX_PURE_PYTHON": os.environ.get("BLOCKMAX_PURE_PYTHON"),
        "processes": "single process, one job at a time",
        "note": None if compiled else
        "compiled kernel not built (the benchmark builds nothing); only the python backend is measured",
    }


def measure_setup(paths) -> list[float]:
    """Wall seconds of fresh processes that import blockmax and ingest the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, paths)],
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return times


def tail(latencies):
    """(percentile, value): the highest percentile with at least ten samples beyond it.

    Of n samples that is the 100 * (1 - 10 / n) percentile, interpolated
    between samples.  Under 20 samples no percentile above the median has ten
    beyond it, so the median is reported; the value moves smoothly with n.
    """
    q = max(0.5, 1.0 - 10.0 / len(latencies))
    return 100.0 * q, float(np.quantile(latencies, q))


class Loop:
    """Closed-loop job runner: one job at a time, latencies and CPU per job."""

    def __init__(self, workload):
        self.workload = workload
        self.first = None  # the first completed job's Outcome
        self.mismatched = 0
        self.attempted = self.failed = self.jobs = 0
        self.accounting_s = 0.0  # summarizing outputs between jobs, last call of run()
        self.errors = []

    def run(self, seconds, run_job):
        """Jobs until ``seconds`` have passed: (latencies, CPU seconds, wall seconds).

        The wall seconds run from the first job's start to the last job's end,
        less the time this harness spends summarizing outputs between jobs
        (kept in ``accounting_s`` and printed).  With one client in a closed
        loop, jobs per wall second differ from 1 / mean latency only by what
        happens between jobs.
        """
        latencies, cpu = [], 0.0
        self.accounting_s = 0.0
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            i = self.jobs
            self.jobs += 1
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                raw = run_job(i)
            except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
                raw = None
                if len(self.errors) < 5:
                    self.errors.append(f"job {i}: {exc!r}")
            t1, c1 = time.perf_counter(), time.process_time()
            latencies.append(t1 - t0)
            cpu += c1 - c0
            self._account(raw)
            if t1 >= deadline:
                return latencies, cpu, t1 - start - self.accounting_s
            raw = None  # free this output before the next job runs
            self.accounting_s += time.perf_counter() - t1

    def _account(self, raw):
        if raw is None:
            self.attempted += 1
            self.failed += 1
            return
        outcome = self.workload.summarize(raw)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        if self.first is None:
            self.first = outcome
        elif outcome.digest != self.first.digest:
            self.mismatched += 1


def kernel_microbench(bm) -> dict:
    """us/call per backend, kernel and size, timed by ``benchmarks/bench_kernels.py``.

    Its ``best_of`` loop (best of 5 loops of 200 calls) on its own sample
    (``bm.sample`` of GEV(80, 20, -0.05), seed 1) at its three sizes.
    """
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from bench_kernels import best_of

    out = {}
    for n in KERNEL_SIZES:
        x = bm.sample(bm.GevParams(80.0, 20.0, -0.05), n, seed=1).values
        for backend, impl in sorted(bm._core.BACKENDS.items()):
            out[(backend, "gumbel_nllh", n)] = best_of(lambda: impl.gumbel_nllh(x, 80.0, 20.0)) * 1e6
            out[(backend, "gev_nllh", n)] = best_of(lambda: impl.gev_nllh(x, 80.0, 20.0, -0.05)) * 1e6
    return out


def run_checks(bm, workload, loop) -> list[str]:
    if loop.first is None:
        return ["no job completed"]
    errors = []
    if loop.mismatched:
        errors.append(f"{loop.mismatched} jobs gave other output bytes than the first job")
    for k, (sample, fit) in enumerate(zip(workload.samples[:SCIPY_CHECKED_INPUTS], loop.first.fits)):
        if fit is not None:
            errors += checks.fits_vs_scipy(sample.values, fit, f"input {k}")
    errors += loop.first.errors
    errors += checks.resampling_vs_reference(bm)
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or 'all' to run each in turn in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, *common]).returncode
                 for name in WORKLOADS]
        return max(codes)

    bm = import_blockmax()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(bm, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(bm, workload, loop, args):
    """Untraced jobs for a third of the time, then traced jobs; (latencies, metrics, notes)."""
    plain, _, _ = loop.run(args.seconds / 3.0, workload.run)
    tracer = tracing.Tracer()
    uninstall = tracing.install(bm, tracer)
    job_span = tracer.span("bench.job", workload.run)

    def traced_job(i):
        tracer.job = i
        return job_span(i)

    try:
        traced, _, _ = loop.run(args.seconds * 2.0 / 3.0, traced_job)
    finally:
        uninstall()
    layer = tracer.metrics(len(traced))
    layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    kernels = kernel_microbench(bm)
    for (backend, kernel, n), us in kernels.items():
        if backend == bm.KERNEL_BACKEND:
            layer[f"core.{kernel}_us.n{n}"] = us
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)

    notes = [f"untraced jobs {len(plain)}, traced jobs {len(traced)}"]
    notes.append("layer self time per job (s): " + "  ".join(
        f"{name}={tracer.self_s[name] / len(traced):.6g}" for name in tracing.LAYERS))
    notes += [f"kernel {backend} {kernel} n={n}: {us:.3f} us/call"
              for (backend, kernel, n), us in sorted(kernels.items())]
    notes.append(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    metrics = {name: {"value": value, "unit": tracing.unit(name)}
               for name, value in sorted(layer.items())}
    return plain + traced, metrics, notes


def _run(bm, args, workdir) -> int:
    host = host_facts(bm)
    workload = WORKLOADS[args.workload](bm, workdir, args.smoke)
    paths = workload.make_inputs(args.seed)
    inputs_sha = inputs.digest(paths)
    setup_times = measure_setup(paths)
    workload.load(paths)
    workload.warmup()

    loop = Loop(workload)
    if args.trace:
        latencies, metrics, notes = traced_run(bm, workload, loop, args)
        tail_q = None
    else:
        latencies, cpu, wall = loop.run(args.seconds, workload.run)
        jobs = len(latencies)
        tail_q, tail_s = tail(latencies)
        e2e = {
            "setup_s": statistics.median(setup_times),
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": tail_s,
            "jobs_per_s": jobs / wall,
            "cpu_per_job_s": cpu / jobs,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}
        notes = [f"tail percentile p{tail_q:.4g} of {jobs} job samples",
                 f"timed wall {wall:.4f} s, not counting {loop.accounting_s:.4f} s "
                 f"of output accounting between jobs"]
    errors = run_checks(bm, workload, loop)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("host " + json.dumps(host))
    print(f"inputs sha256={inputs_sha} files={len(paths)}")
    print(f"outputs sha256={loop.first.digest if loop.first else None}")
    print(f"jobs {len(latencies)}  attempted operations {loop.attempted}  failed {loop.failed}  "
          f"failed_frac {loop.failed / loop.attempted:.6g} fraction")
    for message in loop.errors:
        print(f"job error: {message}")
    print(f"setup samples {SETUP_REPEATS}: " + " ".join(f"{t:.4f}" for t in setup_times))
    for line in notes + workload.notes():
        print(line)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for error in errors:
        print(f"CHECK FAILED: {error}")

    result = {"correct": not errors, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, host=host,
                  jobs=len(latencies), tail_percentile=tail_q, inputs_sha256=inputs_sha,
                  errors=errors)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
