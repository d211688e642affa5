"""Correctness checks, run outside the timed region.

Each check returns a list of error strings; an empty list means it passed.

Run this file directly to print the reference resampling values that the
current source tree produces (the content of ``reference.json``):

    python3 perfbench/checks.py
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

import inputs

REFERENCE = Path(__file__).with_name("reference.json")

# The reference case: a small GEV sample, its bootstrap (fixed seed) and
# jackknife through run_workflow.  Resampling draws are fixed by the
# (seed, i, attempt) streams, so a replicate engine that draws other samples
# moves the bootstrap bias/se by ~1/sqrt(B) of se and fails the check.
CASE = {"seed": 20140204, "n": 40, "mu": 79.0, "sigma": 21.0, "xi": 0.1, "B": 49, "boot_seed": 4}

# Tolerance as a share of the reference standard error of each component.
# Loosening the simplex stopping rule 100-fold (f_tol 1e-8, x_tol 1e-6) moves
# these values by at most 2e-7 se; other draws move them by ~0.1 se.
TOLERANCE = {"bootstrap": 1e-4, "jackknife": 1e-4}


def _scipy_nllh(stats, x, mu, sigma, xi):
    if xi == 0.0:
        return -float(stats.gumbel_r.logpdf(x, mu, sigma).sum())
    return -float(stats.genextreme.logpdf(x, -xi, mu, sigma).sum())


def _scipy_best(stats, x, model):
    """scipy's own ML fit; None when it lands outside the regular region."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if model == "gumbel":
            mu, sigma = stats.gumbel_r.fit(x)
            return _scipy_nllh(stats, x, mu, sigma, 0.0)
        c, mu, sigma = stats.genextreme.fit(x)
    if c >= 1.0:  # xi <= -1: the likelihood is unbounded there
        return None
    value = _scipy_nllh(stats, x, mu, sigma, -c)
    return value if math.isfinite(value) else None


def fits_vs_scipy(values, fits: dict, label: str) -> list[str]:
    """Reported fits: nllh true at the reported parameters, no worse than scipy."""
    from scipy import stats

    x = np.asarray(values, dtype=float)
    errors = []
    for model, fit in fits.items():
        p = fit["params"]
        ours = fit["nllh"]
        at_params = _scipy_nllh(stats, x, p["mu"], p["sigma"], p.get("xi", 0.0))
        if not math.isclose(at_params, ours, rel_tol=1e-8, abs_tol=1e-8):
            errors.append(f"{label} {model}: reported nllh {ours} but scipy gives "
                          f"{at_params} at the reported parameters")
        best = _scipy_best(stats, x, model)
        if best is not None and ours > best + 1e-8 * abs(best) + 1e-8:
            errors.append(f"{label} {model}: nllh {ours} is worse than scipy's fit {best}")
    return errors


def reference_resampling(bm) -> dict:
    rng = np.random.Generator(np.random.PCG64(CASE["seed"]))
    values = inputs.gev_values(rng, CASE["mu"], CASE["sigma"], CASE["xi"], CASE["n"])
    wf = bm.workflow
    config = wf.WorkflowConfig(model="gev", boot_b=CASE["B"], seed=CASE["boot_seed"])
    report = wf.run_workflow(bm.data.MaximaSample(values), config)
    return {method: {"bias": rep["bias"], "se": rep["se"]}
            for method, rep in report["resampling"].items()}


def resampling_vs_reference(bm) -> list[str]:
    stored = json.loads(REFERENCE.read_text())
    if stored["case"] != CASE:
        return [f"{REFERENCE.name} was made for another case: {stored['case']}"]
    got = reference_resampling(bm)
    errors = []
    for method, rtol in TOLERANCE.items():
        ref = stored[method]
        for key in ("bias", "se"):
            for i, (g, r, se) in enumerate(zip(got[method][key], ref[key], ref["se"])):
                if abs(g - r) > rtol * se:
                    errors.append(f"reference {method} {key}[{i}] = {g}, stored {r} "
                                  f"(tolerance {rtol} x se {se})")
    return errors


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import blockmax

    print(json.dumps({"case": CASE, **reference_resampling(blockmax)}, indent=2))
