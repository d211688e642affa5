"""End-to-end analysis workflow and the machine-readable report.

``run_workflow`` fits both models, selects one (likelihood-ratio verdict,
AIC reported alongside), quantifies estimator uncertainty by bootstrap and
jackknife, screens and applies bias corrections, computes return levels with
confidence bounds, order-statistic exceedance probabilities and the four
diagnostic series, and returns everything as one JSON-ready dict.  All floats
in the report are rounded to 10 significant digits; rendering helpers build
the human-readable tables from the same dict, so every displayed number is in
the report.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import diagnostics as diag
from .data import MaximaSample
from .gev import GevParams, cdf
from .inference import FitResult, Refit, aic, fit_gev, fit_gumbel, lrt
from .orderstats import order_cdf
from .resampling import Verdict, bootstrap, jackknife, screen
from .returns import return_level_ci
from .special import chi2_quantile

__all__ = ["WorkflowConfig", "WorkflowError", "render_tables", "run_workflow"]

REPORT_SCHEMA = "blockmax-report/1"


class WorkflowError(Exception):
    """A workflow stage failed; carries the stage name and the original error."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str):
    try:
        yield
    except WorkflowError:
        raise
    except Exception as exc:
        raise WorkflowError(name, exc) from exc


@dataclass(frozen=True)
class WorkflowConfig:
    """Knobs for :func:`run_workflow`.

    ``model="auto"`` selects by the likelihood-ratio test.  ``boot_b=0``
    skips the bootstrap; ``run_jackknife=False`` skips the jackknife.
    ``bias_correct``: "auto" corrects parameters whose screening verdict is
    CORRECT, "on" corrects all, "off" none; the correction source report is
    the jackknife when available, otherwise the bootstrap.  ``seed=None``
    falls back to the EVT_SEED environment variable, then 0.
    """

    model: str = "auto"
    boot_b: int = 999
    seed: int | None = None
    run_jackknife: bool = True
    periods: tuple[float, ...] = (4.0, 10.0, 40.0, 100.0)
    tau: float = 0.05
    one_sided: bool = False
    bias_correct: str = "auto"  # auto | on | off
    order_x: float | None = None
    order_n: int = 10
    order_ranks: tuple[int, ...] = ()
    holdout: tuple[float, ...] = ()
    density_bins: int | None = None


def resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    return int(os.environ.get("EVT_SEED", "0"))


def _sig10(x):
    """Round a float to 10 significant digits; non-finite becomes None."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    x = float(x)
    if not math.isfinite(x):
        return None
    return float(f"{x:.10g}")


def _round_tree(obj):
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return _sig10(obj)
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _round_tree(obj.tolist())
    return obj


def _fit_dict(fit: FitResult) -> dict:
    # xi is reported for both models; 0.0 is the Gumbel member by definition
    return {
        "params": {"mu": fit.params.mu, "sigma": fit.params.sigma, "xi": fit.params.xi},
        "nllh": fit.nllh,
        "regularity": fit.regularity.value,
        "converged": fit.opt.converged,
        "iterations": fit.opt.iterations,
        "se": None if fit.se is None else list(fit.se),
        "cov": None if fit.cov is None else fit.cov.tolist(),
    }


def _report_dict(rep, verdicts) -> dict:
    d = {
        "labels": list(rep.labels),
        "estimate": list(rep.estimate),
        "bias": list(rep.bias),
        "se": list(rep.se),
        "ratio": list(rep.ratio),
        "rmse": list(rep.rmse),
        "corrected": list(rep.corrected),
        "verdicts": [v.value for v in verdicts],
    }
    if rep.method == "bootstrap":
        d.update({"B": rep.b, "seed": rep.seed, "failed": rep.failed})
    return d


def _series_dict(series: diag.PlotSeries) -> dict:
    return {
        "kind": series.kind.value,
        "points": series.points.tolist(),
        "bands": None if series.bands is None else series.bands.tolist(),
        "reference": series.reference,
    }


def run_workflow(sample: MaximaSample, config: WorkflowConfig | None = None) -> dict:
    """Run the full analysis; returns the machine-readable report dict."""
    config = config or WorkflowConfig()
    if config.model not in ("auto", "gev", "gumbel"):
        raise ValueError(f"unknown model {config.model!r}")
    if config.bias_correct not in ("auto", "on", "off"):
        raise ValueError(f"unknown bias_correct {config.bias_correct!r}")
    seed = resolve_seed(config.seed)
    values = sample.values

    report: dict = {"schema": REPORT_SCHEMA}
    report["input"] = {
        "n": int(values.size),
        "years": None if sample.years is None else [int(sample.years[0]), int(sample.years[-1])],
        "mean": values.mean(),
        "sd": values.std(ddof=1),
        "min": values.min(),
        "max": values.max(),
    }
    report["config"] = {
        "model": config.model,
        "boot_B": config.boot_b,
        "seed": seed,
        "jackknife": config.run_jackknife,
        "periods": list(config.periods),
        "tau": config.tau,
        "one_sided": config.one_sided,
        "bias_correct": config.bias_correct,
    }

    with _stage("fit"):
        gumbel_fit = fit_gumbel(sample)
        gev_fit = fit_gev(sample)
        report["fits"] = {"gumbel": _fit_dict(gumbel_fit), "gev": _fit_dict(gev_fit)}

    with _stage("model_selection"):
        test = lrt(gumbel_fit, gev_fit)
        selected = config.model if config.model != "auto" else (
            "gev" if test.reject_at_5pct else "gumbel"
        )
        report["model_selection"] = {
            "lrt": {
                "D": test.d,
                "df": test.df,
                "critical_95": chi2_quantile(0.95, test.df),
                "reject": test.reject_at_5pct,
            },
            "aic": {"gumbel": aic(gumbel_fit), "gev": aic(gev_fit)},
            "selected": selected,
            "forced": config.model != "auto",
        }
    fit = gev_fit if selected == "gev" else gumbel_fit
    labels = ("mu", "sigma", "xi")[: fit.n_params]
    stat = Refit(selected)

    with _stage("resampling"):
        resampling: dict = {}
        boot_rep = jack_rep = None
        if config.boot_b >= 2:
            boot_rep = bootstrap(values, stat, b=config.boot_b, seed=seed, labels=labels)
            resampling["bootstrap"] = _report_dict(boot_rep, screen(boot_rep))
        if config.run_jackknife:
            jack_rep = jackknife(values, stat, labels=labels)
            resampling["jackknife"] = _report_dict(jack_rep, screen(jack_rep))
        report["resampling"] = resampling or None

    with _stage("correction"):
        source = jack_rep if jack_rep is not None else boot_rep
        applied: list[str] = []
        effective = fit.params
        if source is not None and config.bias_correct != "off":
            verdicts = screen(source)
            corrected = dict(zip(source.labels, source.corrected))
            take = {
                "auto": [l for l, v in zip(source.labels, verdicts) if v is Verdict.CORRECT],
                "on": list(source.labels),
            }[config.bias_correct]
            if take:
                raw = {"mu": fit.params.mu, "sigma": fit.params.sigma, "xi": fit.params.xi}
                raw.update({name: corrected[name] for name in take})
                effective = GevParams(raw["mu"], raw["sigma"], raw["xi"])
                applied = take
        report["correction"] = {
            "source": None if source is None else source.method,
            "applied": applied,
            "params": {name: getattr(effective, name) for name in labels},
        }
    sigma_corrected = effective.sigma if "sigma" in applied else None

    with _stage("return_levels"):
        if config.periods:
            rows = []
            for period in config.periods:
                est = return_level_ci(
                    fit, 1.0 / period, tau=config.tau,
                    one_sided=config.one_sided, sigma_corrected=sigma_corrected,
                )
                rows.append({
                    "period": period,
                    "p": est.p,
                    "level": est.level,
                    "variance": est.variance,
                    "lower": est.ci[0],
                    "upper": est.ci[1],
                })
            report["return_levels"] = {
                "tau": config.tau,
                "one_sided": config.one_sided,
                "basis": ("bias_corrected" if sigma_corrected is not None else "raw_fit"),
                "rows": rows,
            }
        else:
            report["return_levels"] = None

    with _stage("diagnostics"):
        series = [
            diag.probability_plot(values, fit.params),
            diag.quantile_plot(values, fit.params),
            diag.density_overlay(values, fit.params, bins=config.density_bins),
        ]
        if config.periods:
            series.append(diag.return_curve(
                fit, config.periods, tau=config.tau,
                one_sided=config.one_sided, sigma_corrected=sigma_corrected,
            ))
        report["diagnostics"] = {s.kind.value: _series_dict(s) for s in series}

    with _stage("order_statistics"):
        if config.order_x is not None and config.order_ranks:
            f_val = cdf(effective, config.order_x)
            report["order_statistics"] = {
                "x": config.order_x,
                "n": config.order_n,
                "parent_cdf": f_val,
                "rows": [
                    {"r": int(r), "prob": order_cdf(f_val, int(r), config.order_n)}
                    for r in config.order_ranks
                ],
            }
        else:
            report["order_statistics"] = None

    with _stage("holdout"):
        if config.holdout and report["return_levels"] is not None:
            comparisons = [
                {
                    "period": row["period"],
                    "level": row["level"],
                    "under": [bool(v <= row["level"]) for v in config.holdout],
                }
                for row in report["return_levels"]["rows"]
            ]
            report["holdout"] = {"values": list(config.holdout), "comparisons": comparisons}
        else:
            report["holdout"] = None

    return _round_tree(report)


def _fmt(x) -> str:
    if x is None:
        return "NA"
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _table(title: str, header: list[str], rows: list[list]) -> str:
    cells = [header] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = [title, "  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_tables(report: dict) -> str:
    """Human-readable tables; every number is taken verbatim from the report."""
    blocks = []

    fits, sel = report["fits"], report["model_selection"]
    blocks.append(_table(
        "Model comparison",
        ["model", "xi", "log-lik", "AIC"],
        [
            [name, fits[name]["params"]["xi"], -fits[name]["nllh"], sel["aic"][name]]
            for name in ("gumbel", "gev")
        ],
    ))
    blocks.append(_table(
        "Likelihood-ratio test",
        ["D", "df", "critical(95%)", "reject", "selected"],
        [[sel["lrt"]["D"], sel["lrt"]["df"], sel["lrt"]["critical_95"],
          sel["lrt"]["reject"], sel["selected"]]],
    ))

    if report.get("resampling"):
        rows = []
        for method, rep in report["resampling"].items():
            for i, label in enumerate(rep["labels"]):
                rows.append([
                    method, label, rep["estimate"][i], rep["bias"][i], rep["se"][i],
                    rep["ratio"][i], rep["rmse"][i], rep["corrected"][i], rep["verdicts"][i],
                ])
        blocks.append(_table(
            "Resampling bias and standard error",
            ["method", "param", "estimate", "bias", "se", "|bias|/se", "rmse", "corrected", "verdict"],
            rows,
        ))

    if report.get("return_levels"):
        rl = report["return_levels"]
        blocks.append(_table(
            f"Return levels (tau={_fmt(rl['tau'])}, "
            f"{'one-sided' if rl['one_sided'] else 'two-sided'}, basis={rl['basis']})",
            ["period", "level", "lower", "upper"],
            [[r["period"], r["level"], r["lower"], r["upper"]] for r in rl["rows"]],
        ))

    if report.get("order_statistics"):
        os_sec = report["order_statistics"]
        blocks.append(_table(
            f"Order statistics P(X_(r:{os_sec['n']}) <= {_fmt(os_sec['x'])})",
            ["r", "probability"],
            [[r["r"], r["prob"]] for r in os_sec["rows"]],
        ))

    if report.get("holdout"):
        rows = [
            [c["period"], c["level"], sum(c["under"]), len(c["under"])]
            for c in report["holdout"]["comparisons"]
        ]
        blocks.append(_table(
            f"Holdout values {report['holdout']['values']} vs return levels",
            ["period", "level", "n_under", "n_total"],
            rows,
        ))

    return "\n\n".join(blocks) + "\n"
