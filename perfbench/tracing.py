"""Spans and counters at the package's layer boundaries, recorded from outside.

:func:`install` replaces the module attributes that callers look up at call
time (``_core.gev_nllh``, ``inference.minimize``, ``workflow.bootstrap``, ...)
with timing wrappers and returns a function that puts the originals back.
Nothing under ``src/`` changes.

Every wrapped call except a kernel evaluation becomes a span: (id, parent,
job, name, start, end).  Kernel evaluations are too many to keep one by one
(about 260 000 per standard report), so they are counted and their time is
charged to the innermost open span.  A layer's self time is its spans'
durations minus the time of the child spans and kernel calls inside them.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
from collections import defaultdict
from time import perf_counter

LAYERS = ("core", "simplex", "likelihood", "inference", "resampling",
          "returns", "diagnostics", "data", "workflow", "cli")
RESAMPLERS = ("resampling.bootstrap", "resampling.jackknife")


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, u in (("_per_s", "1/s"), ("_s", "s"), ("_ms_p50", "ms"), ("_ms", "ms"),
                      ("computed_bytes", "B"), ("_ratio", "ratio"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return u
    return "us" if "_us." in name else "count"


class Tracer:
    def __init__(self):
        self.job = None
        self.spans = []  # (id, parent, job, name, start, end)
        self.stack = []  # open frames: [id, name, start, child_time]
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.durations = defaultdict(list)  # span name -> inclusive durations
        self.counts = defaultdict(float)
        self._ids = itertools.count()

    # -- recording -------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span named ``layer.function``."""
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                tracer.self_s[layer] += duration - frame[3]
                if parent is not None:
                    parent[3] += duration
                tracer.durations[name].append(duration)
                tracer.spans.append((frame[0], None if parent is None else parent[0],
                                     tracer.job, name, frame[2], end))
            if after is not None:
                after(tracer, out, parent, args, kwargs)
            return out

        return wrapper

    def kernel(self, fn):
        """Wrap a likelihood kernel: count calls and elements, charge time."""
        counts, stack, self_s = self.counts, self.stack, self.self_s

        @functools.wraps(fn)
        def wrapper(values, *params):
            start = perf_counter()
            out = fn(values, *params)
            elapsed = perf_counter() - start
            self_s["core"] += elapsed
            counts["core.calls"] += 1
            counts["core.elements"] += values.size
            if stack:
                top = stack[-1]
                top[3] += elapsed
                if top[1] == "simplex.minimize":
                    counts["simplex.evals"] += 1
            return out

        return wrapper

    def write(self, path):
        """Write the spans as JSON lines (one object per span)."""
        keys = ("id", "parent", "job", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    # -- per-layer metrics -----------------------------------------------

    def metrics(self, jobs: int) -> dict:
        """Per-job layer metrics over ``jobs`` traced jobs (name -> value)."""
        c, d, s = self.counts, self.durations, self.self_s
        per = 1.0 / jobs

        def total(name):
            return sum(d.get(name, ()))

        def p50_ms(name):
            return 1e3 * statistics.median(d[name]) if d.get(name) else 0.0

        minimize_calls = len(d.get("simplex.minimize", ()))
        boot_s, jack_s = total("resampling.bootstrap"), total("resampling.jackknife")
        refits = c["resampling.refits"]  # every refit attempt, redrawn ones included
        # returns and diagnostics self time are the two *_s metrics below
        out = {f"{layer}.self_s": s[layer] * per for layer in LAYERS
               if layer not in ("returns", "diagnostics")}
        out.update({
            "core.calls": c["core.calls"] * per,
            "core.computed_bytes": 8.0 * c["core.elements"] * per,
            "simplex.minimize_calls": minimize_calls * per,
            "simplex.iterations": c["simplex.iterations"] * per,
            "simplex.evals_per_minimize": c["simplex.evals"] / minimize_calls if minimize_calls else 0.0,
            "simplex.restarts": c["simplex.restarts"] * per,
            "simplex.unconverged": c["simplex.unconverged"] * per,
            "likelihood.observed_information_calls": len(d.get("likelihood.observed_information", ())) * per,
            "likelihood.observed_information_s": total("likelihood.observed_information") * per,
            "inference.fit_calls": (len(d.get("inference.fit_gev", ())) + len(d.get("inference.fit_gumbel", ()))) * per,
            "inference.fit_gev_ms_p50": p50_ms("inference.fit_gev"),
            "inference.fit_gumbel_ms_p50": p50_ms("inference.fit_gumbel"),
            "inference.se_missing": c["inference.se_missing"] * per,
            "inference.profile_s": total("inference.profile") * per,
            "inference.profile_grid_points": c["inference.profile_grid_points"] * per,
            "resampling.bootstrap_s": boot_s * per,
            "resampling.jackknife_s": jack_s * per,
            "resampling.refits": refits * per,
            "resampling.redraws": c["resampling.redraws"] * per,
            # accepted replicates / attempts; 0 where nothing was resampled
            "resampling.useful_ratio": (refits - c["resampling.redraws"]) / refits if refits else 0.0,
            "resampling.refits_per_s": refits / (boot_s + jack_s) if refits else 0.0,
            "returns.return_level_ci_s": total("returns.return_level_ci") * per,
            "diagnostics.series_s": s["diagnostics"] * per,
            "data.ingest_ms": p50_ms("data.ingest"),
        })
        return out


# -- counters computed from a wrapped call's result ------------------------

def _after_minimize(tracer, opt, parent, args, kwargs):
    c = tracer.counts
    c["simplex.iterations"] += opt.iterations
    c["simplex.restarts"] += opt.restarts
    c["simplex.unconverged"] += not opt.converged


def _after_fit(tracer, fit, parent, args, kwargs):
    if parent is not None and parent[1] in RESAMPLERS:
        tracer.counts["resampling.refits"] += 1
    compute_se = kwargs.get("compute_se", args[1] if len(args) > 1 else True)
    if compute_se and fit.se is None:
        tracer.counts["inference.se_missing"] += 1


def _after_bootstrap(tracer, report, parent, args, kwargs):
    # failed replicates were redrawn: each failure was one refit attempt
    tracer.counts["resampling.redraws"] += report.failed
    tracer.counts["resampling.refits"] += report.failed


def _after_profile(tracer, curve, parent, args, kwargs):
    tracer.counts["inference.profile_grid_points"] += curve.grid.size


def install(bm, tracer: Tracer):
    """Wrap the package's layer boundaries; returns an ``uninstall`` callable."""
    core, inference, workflow = bm._core, bm.inference, bm.workflow
    diagnostics, data, cli = bm.diagnostics, bm.data, bm.cli

    fit_gev = tracer.span("inference.fit_gev", inference.fit_gev, _after_fit)
    fit_gumbel = tracer.span("inference.fit_gumbel", inference.fit_gumbel, _after_fit)
    return_level_ci = tracer.span("returns.return_level_ci", workflow.return_level_ci)
    ingest = tracer.span("data.ingest", data.ingest)
    run_workflow = tracer.span("workflow.run_workflow", workflow.run_workflow)
    patches = [
        (core, "gev_nllh", tracer.kernel(core.gev_nllh)),
        (core, "gumbel_nllh", tracer.kernel(core.gumbel_nllh)),
        (inference, "minimize", tracer.span("simplex.minimize", inference.minimize, _after_minimize)),
        (inference, "observed_information",
         tracer.span("likelihood.observed_information", inference.observed_information)),
        (inference, "fit_gev", fit_gev),
        (inference, "fit_gumbel", fit_gumbel),
        (inference, "profile", tracer.span("inference.profile", inference.profile, _after_profile)),
        (workflow, "fit_gev", fit_gev),
        (workflow, "fit_gumbel", fit_gumbel),
        (workflow, "bootstrap", tracer.span("resampling.bootstrap", workflow.bootstrap, _after_bootstrap)),
        (workflow, "jackknife", tracer.span("resampling.jackknife", workflow.jackknife)),
        (workflow, "return_level_ci", return_level_ci),
        (diagnostics, "return_level_ci", return_level_ci),
        (workflow, "run_workflow", run_workflow),
        (cli, "run_workflow", run_workflow),
        (data, "ingest", ingest),
        (cli, "ingest", ingest),
        (cli, "main", tracer.span("cli.main", cli.main)),
    ]
    for name in ("probability_plot", "quantile_plot", "density_overlay", "return_curve"):
        patches.append((diagnostics, name, tracer.span(f"diagnostics.{name}", getattr(diagnostics, name))))

    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, wrapper in patches:
        setattr(module, attr, wrapper)

    def uninstall():
        for module, attr, original in originals:
            setattr(module, attr, original)

    return uninstall
