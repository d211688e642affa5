"""The four benchmark workloads.

Each workload writes its inputs from the seed, loads them once outside the
timed region, and then runs one *job* (the unit a user waits for) per call of
``run``.  ``summarize`` turns a job's output into an :class:`Outcome`
(operation counts and a digest used by the determinism check) outside the
job's latency.  The package is reached through module attributes looked up at
call time (``cli.main``, ``workflow.run_workflow``, ...), so the traced run can
wrap them without touching ``src/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs

# The standard case of the README: the simulated Eudunda-like series, B=999,
# jackknife on, the order-statistic and holdout flags of the report example.
STANDARD = dict(n=129, mu=79.0, sigma=21.0, xi=0.0)
REPORT_FLAGS = [
    "--model", "gev", "--seed", "4",
    "--ostat-x", "100", "--ostat-ranks", "2,4,5,8,10",
    "--holdout", "106.2,104,60.8,73.8", "--format", "table",
]
PROFILE_PERIODS = (10.0, 40.0, 100.0)


class JobFailed(Exception):
    """A job ended without a usable result (nonzero exit, exception)."""


@dataclass
class Outcome:
    digest: str  # of the job's output; every job of a run must give the same
    attempted: int  # operations: the job, its station analyses, refits, profile grid points
    failed: int  # failed station analyses, bootstrap redraws, fits returned with se=None
    fits: list = field(default_factory=list)  # per input file: model -> report "fits" entry
    errors: list = field(default_factory=list)  # failed workload-specific output checks


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_outcome(report: dict, digest: str) -> Outcome:
    attempted, failed = 1, 0
    for method, rep in (report.get("resampling") or {}).items():
        if method == "bootstrap":
            attempted += rep["B"] + rep["failed"]
            failed += rep["failed"]
        else:
            attempted += report["input"]["n"]
    failed += sum(f["se"] is None for f in report["fits"].values())
    return Outcome(digest, attempted, failed, [report["fits"]])


class Workload:
    name = ""

    def __init__(self, bm, workdir: Path, smoke: bool):
        self.bm = bm
        self.workdir = workdir
        self.smoke = smoke

    def make_inputs(self, seed: int) -> list[Path]:
        raise NotImplementedError

    def load(self, paths):
        """Ingest the inputs once, outside the timed region."""
        self.paths = paths
        self.samples = [self.bm.data.ingest(p) for p in paths]

    def warmup(self):
        """Touch the code paths once so lazy set-up is not timed."""
        self.bm.inference.fit_gev(self.samples[0])

    def run(self, i: int):
        raise NotImplementedError

    def summarize(self, raw) -> Outcome:
        raise NotImplementedError

    def notes(self) -> list[str]:
        """Workload-specific lines for the human-readable output."""
        return []


class ReportStandard(Workload):
    name = "report-standard"

    def make_inputs(self, seed):
        return inputs.make_series(self.workdir, seed, **STANDARD)

    def load(self, paths):
        super().load(paths)
        self.out_dir = self.workdir / "report_out"
        self.argv = ["report", str(paths[0]), *REPORT_FLAGS, "--boot-B", "19" if self.smoke else "999",
                     "--out-dir", str(self.out_dir)]

    def run(self, i):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.bm.cli.main(self.argv)
        if rc != 0:
            raise JobFailed(f"blockmax report exited {rc}: {err.getvalue().strip()}")
        return (self.out_dir / "report.json").read_bytes()

    def summarize(self, raw):
        return _report_outcome(json.loads(raw), _sha(raw))


class LongRecord(Workload):
    name = "long-record"

    def make_inputs(self, seed):
        n = 2000 if self.smoke else 10_000
        return inputs.make_series(self.workdir, seed, n=n, mu=79.0, sigma=21.0, xi=0.1)

    def load(self, paths):
        super().load(paths)
        wf = self.bm.workflow
        self.config = wf.WorkflowConfig(
            model="auto", boot_b=5 if self.smoke else 99, seed=4, run_jackknife=False
        )

    def run(self, i):
        return self.bm.workflow.run_workflow(self.samples[0], self.config)

    def summarize(self, raw):
        return _report_outcome(raw, _sha(json.dumps(raw, sort_keys=True).encode()))


class StationsScreen(Workload):
    """One job screens the whole network: every station file, ingested and analysed.

    A job of one station (~13 ms) lasts shorter than the swings in speed of a
    shared host, so its median flips between a fast and a slow mode from run
    to run; a screen of all files averages over them.  The per-station
    latencies are still kept and printed.
    """

    name = "stations-screen"

    def make_inputs(self, seed):
        count = 12 if self.smoke else 300
        return inputs.make_stations(self.workdir, seed, count)

    def load(self, paths):
        super().load(paths)
        self.config = self.bm.workflow.WorkflowConfig(
            model="auto", boot_b=0, seed=4, run_jackknife=False
        )
        self.station_latencies = []

    def warmup(self):
        self._analyse(self.paths[0])

    def _analyse(self, path):
        """One station: ingest and analyse; its report, or None if the analysis failed."""
        sample = self.bm.data.ingest(path)
        try:
            return self.bm.workflow.run_workflow(sample, self.config)
        except self.bm.workflow.WorkflowError:
            return None  # the station is reported as failed; the screen goes on

    def run(self, i):
        stations = []
        for path in self.paths:
            start = time.perf_counter()
            stations.append(self._analyse(path))
            self.station_latencies.append(time.perf_counter() - start)
        return stations

    def summarize(self, raw):
        h = hashlib.sha256()
        attempted, failed, fits = 1, 0, []
        for station in raw:
            attempted += 1
            if station is None:
                failed += 1
                fits.append(None)
                h.update(b"failed")
                continue
            fits.append(station["fits"])
            h.update(json.dumps(station).encode())
            failed += sum(f["se"] is None for f in station["fits"].values())
        return Outcome(h.hexdigest(), attempted, failed, fits)

    def notes(self):
        lat = sorted(self.station_latencies)
        q = statistics.quantiles(lat, n=100, method="inclusive")
        return [f"station analyses {len(lat)}: p50 {q[49] * 1e3:.3f} ms  p90 {q[89] * 1e3:.3f} ms  "
                f"p99 {q[98] * 1e3:.3f} ms  max {lat[-1] * 1e3:.3f} ms"]


class ProfileScan(Workload):
    name = "profile-scan"

    def make_inputs(self, seed):
        return inputs.make_series(self.workdir, seed, n=129, mu=79.0, sigma=21.0, xi=0.1)

    def run(self, i):
        inf = self.bm.inference
        sample = self.samples[0]
        fit = inf.fit_gev(sample)
        periods = PROFILE_PERIODS[:1] if self.smoke else PROFILE_PERIODS
        curves = [inf.profile(sample, "gev", "xi", fit=fit)]
        curves += [inf.profile(sample, "gev", "return_level", p=1.0 / t, fit=fit) for t in periods]
        return fit, curves

    def summarize(self, raw):
        fit, curves = raw
        h = hashlib.sha256(np.asarray(fit.theta).tobytes())
        for c in curves:
            h.update(c.grid.tobytes())
            h.update(c.lp.tobytes())
            h.update(np.asarray(c.ci).tobytes())
        grid_points = sum(c.grid.size for c in curves)
        fits = {"gev": {"params": dict(zip(("mu", "sigma", "xi"), map(float, fit.theta))),
                        "nllh": fit.nllh, "se": None if fit.se is None else list(fit.se)}}
        return Outcome(h.hexdigest(), 1 + grid_points, int(fit.se is None), [fits],
                       self._check(fit, curves))

    def _check(self, fit, curves):
        # The deviance interval must contain the estimate it is built around,
        # and no grid point may beat the full maximum likelihood.
        rl = self.bm.returns.return_level
        centers = [("xi", fit.params.xi)]
        centers += [(f"{t:g}-block level", rl(fit.params, 1.0 / t)) for t in PROFILE_PERIODS]
        errors = []
        lhat = -fit.nllh
        for (label, center), c in zip(centers, curves):
            lo, hi = c.ci
            if not lo < center < hi:
                errors.append(f"profile CI {c.ci} for the {label} misses the estimate {center}")
            if c.lp.max() > lhat + 1e-8 * abs(lhat):
                errors.append(f"profile of the {label} beats the MLE: {c.lp.max()} > {lhat}")
        return errors


WORKLOADS = {w.name: w for w in (ReportStandard, LongRecord, StationsScreen, ProfileScan)}
