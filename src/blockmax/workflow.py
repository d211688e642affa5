"""End-to-end analysis workflow and the machine-readable report.

The analysis runs in stages, one function each, which the CLI subcommands
call as well: ``select_model`` fits the models and picks one
(likelihood-ratio verdict, AIC reported alongside), ``resample`` quantifies
estimator uncertainty by bootstrap and jackknife, ``correct`` screens and
applies the bias corrections, ``return_levels`` computes return levels with
confidence bounds, ``diagnostic_series`` the diagnostic plot series and
``order_statistics`` order-statistic exceedance probabilities.
``run_workflow`` composes the stages into one JSON-ready dict.  All floats in
the report are rounded to 10 significant digits; ``report_tables`` builds
both the human-readable tables and the CSV tables from that dict, so every
displayed number is in the report.
"""

from __future__ import annotations

import dataclasses
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import diagnostics as diag
from .data import MaximaSample
from .gev import GevParams, cdf
from .inference import FitResult, LrtResult, Refit, aic, fit_gev, fit_gumbel, lrt
from .orderstats import order_cdf
from .resampling import Verdict, bootstrap, bootstrap_jackknife, jackknife, screen
from .returns import return_level_ci
from .special import chi2_quantile

__all__ = [
    "Correction", "Selection", "Table", "WorkflowConfig", "WorkflowError", "correct",
    "diagnostic_series", "order_statistics", "render_tables", "report_tables", "resample",
    "return_levels", "round_tree", "run_workflow", "select_model",
]

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


def round_tree(obj):
    """A JSON-ready copy of ``obj`` with every float rounded by ``_sig10``."""
    if isinstance(obj, dict):
        return {k: round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_tree(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return _sig10(obj)
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return round_tree(obj.tolist())
    return obj


def _labels(fit: FitResult) -> tuple[str, ...]:
    return ("mu", "sigma", "xi")[: fit.n_params]


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


def _report_dict(rep) -> dict:
    d = {
        "labels": list(rep.labels),
        "estimate": list(rep.estimate),
        "bias": list(rep.bias),
        "se": list(rep.se),
        "ratio": list(rep.ratio),
        "rmse": list(rep.rmse),
        "corrected": list(rep.corrected),
        "verdicts": [v.value for v in screen(rep)],
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


# -- stages -------------------------------------------------------------------

@dataclass(frozen=True)
class Selection:
    """The models fitted and the one the analysis goes on with."""

    fits: dict[str, FitResult]  # by model name, in fitting order
    model: str  # the selected model
    test: LrtResult | None  # None when a forced model was fitted alone

    @property
    def fit(self) -> FitResult:
        return self.fits[self.model]


def select_model(sample, model: str = "auto", compare: bool = True) -> Selection:
    """Stages "fit" and "model_selection".

    "auto" fits both models and keeps the GEV when the likelihood-ratio test
    rejects the Gumbel.  A forced model is fitted alone unless ``compare``.
    """
    with _stage("fit"):
        if compare or model == "auto":
            fits = {"gumbel": fit_gumbel(sample), "gev": fit_gev(sample)}
        else:
            fits = {model: (fit_gev if model == "gev" else fit_gumbel)(sample)}
    with _stage("model_selection"):
        test = lrt(fits["gumbel"], fits["gev"]) if len(fits) == 2 else None
        if model == "auto":
            model = "gev" if test.reject_at_5pct else "gumbel"
    return Selection(fits, model, test)


def resample(values, fit: FitResult, boot_b: int = 999, seed: int | None = None,
             run_jackknife: bool = True) -> dict:
    """Stage "resampling": the report sections of the bootstrap (``boot_b``
    replicates; 0 skips it) and the jackknife of ``fit``'s model, by method.
    Every refit starts from ``fit``'s estimate (see :class:`Refit`).  With
    both methods on, the jackknife's refits ride in the bootstrap's first
    round (:func:`blockmax.resampling.bootstrap_jackknife`)."""
    stat, labels = Refit(fit.model, start=fit.theta), _labels(fit)
    sections = {}
    with _stage("resampling"):
        if boot_b and run_jackknife:
            reports = bootstrap_jackknife(values, stat, b=boot_b, seed=resolve_seed(seed),
                                          labels=labels)
        elif boot_b:
            reports = [bootstrap(values, stat, b=boot_b, seed=resolve_seed(seed), labels=labels)]
        else:
            reports = [jackknife(values, stat, labels=labels)] if run_jackknife else []
        for rep in reports:
            sections[rep.method] = _report_dict(rep)
    return sections


@dataclass(frozen=True)
class Correction:
    """The parameters after bias correction, and where the corrections came from."""

    params: GevParams  # the fit's parameters with the corrected ones replaced
    applied: list[str]  # names of the corrected parameters
    source: str | None  # the resampling method the corrections come from

    @property
    def sigma(self) -> float | None:
        """The corrected scale, or None when the scale was not corrected."""
        return self.params.sigma if "sigma" in self.applied else None


def correct(fit: FitResult, resampling: dict, bias_correct: str = "auto") -> Correction:
    """Stage "correction".

    The corrections come from the jackknife section of ``resampling`` when
    there is one, otherwise from the bootstrap.  "auto" corrects the
    parameters whose screening verdict is CORRECT, "on" all, "off" none.
    """
    with _stage("correction"):
        source = next((m for m in ("jackknife", "bootstrap") if m in resampling), None)
        if source is None or bias_correct == "off":
            return Correction(fit.params, [], source)
        rep = resampling[source]
        corrected = {
            name: value
            for name, value, verdict in zip(rep["labels"], rep["corrected"], rep["verdicts"])
            if bias_correct == "on" or verdict == Verdict.CORRECT.value
        }
        return Correction(dataclasses.replace(fit.params, **corrected), list(corrected), source)


def return_levels(fit: FitResult, periods, tau: float = 0.05, one_sided: bool = False,
                  sigma_corrected: float | None = None) -> dict:
    """Stage "return_levels": level and confidence bounds per return period."""
    with _stage("return_levels"):
        rows = []
        for period in periods:
            est = return_level_ci(fit, 1.0 / period, tau=tau, one_sided=one_sided,
                                  sigma_corrected=sigma_corrected)
            rows.append({"period": period, "p": est.p, "level": est.level,
                         "variance": est.variance, "lower": est.ci[0], "upper": est.ci[1]})
    return {
        "tau": tau,
        "one_sided": one_sided,
        "basis": "bias_corrected" if sigma_corrected is not None else "raw_fit",
        "rows": rows,
    }


def diagnostic_series(values, fit: FitResult, periods=(), tau: float = 0.05,
                      one_sided: bool = False, sigma_corrected: float | None = None) -> list:
    """Stage "diagnostics": probability, quantile and density series, and the
    return-level curve when there are periods."""
    with _stage("diagnostics"):
        series = [
            diag.probability_plot(values, fit.params),
            diag.quantile_plot(values, fit.params),
            diag.density_overlay(values, fit.params),
        ]
        if periods:
            series.append(diag.return_curve(fit, periods, tau=tau, one_sided=one_sided,
                                            sigma_corrected=sigma_corrected))
    return series


def order_statistics(params: GevParams, x: float, n: int, ranks) -> dict:
    """Stage "order_statistics": P(X_(r:n) <= x) per rank r under ``params``."""
    with _stage("order_statistics"):
        f_val = cdf(params, x)
        rows = [{"r": int(r), "prob": order_cdf(f_val, int(r), n)} for r in ranks]
    return {"x": x, "n": n, "parent_cdf": f_val, "rows": rows}


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

    selection = select_model(sample, config.model)
    fit, test = selection.fit, selection.test
    report["fits"] = {name: _fit_dict(f) for name, f in selection.fits.items()}
    report["model_selection"] = {
        "lrt": {
            "D": test.d,
            "df": test.df,
            "critical_95": chi2_quantile(0.95, test.df),
            "reject": test.reject_at_5pct,
        },
        "aic": {name: aic(f) for name, f in selection.fits.items()},
        "selected": selection.model,
        "forced": config.model != "auto",
    }

    resampling = resample(values, fit, config.boot_b, seed, config.run_jackknife)
    report["resampling"] = resampling or None
    correction = correct(fit, resampling, config.bias_correct)
    report["correction"] = {
        "source": correction.source,
        "applied": correction.applied,
        "params": {name: getattr(correction.params, name) for name in _labels(fit)},
    }

    ci = {"tau": config.tau, "one_sided": config.one_sided, "sigma_corrected": correction.sigma}
    report["return_levels"] = (
        return_levels(fit, config.periods, **ci) if config.periods else None
    )
    series = diagnostic_series(values, fit, config.periods, **ci)
    report["diagnostics"] = {s.kind.value: _series_dict(s) for s in series}
    report["order_statistics"] = (
        order_statistics(correction.params, config.order_x, config.order_n, config.order_ranks)
        if config.order_x is not None and config.order_ranks else None
    )

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

    return round_tree(report)


# -- tables -------------------------------------------------------------------

@dataclass(frozen=True)
class Table:
    """One table of the report, in the text and in the CSV form.

    Each column has a (text header, CSV header) pair; a None header leaves
    the column out of that form.  ``csv`` names the CSV file; None keeps the
    table out of the CSVs.
    """

    title: str
    csv: str | None
    columns: list[tuple[str | None, str | None]]
    rows: list[list]

    def form(self, csv: bool) -> tuple[list[str], list[list]]:
        """Header and rows of the CSV form (``csv``) or of the text form."""
        side = 1 if csv else 0
        keep = [i for i, c in enumerate(self.columns) if c[side] is not None]
        return [self.columns[i][side] for i in keep], [[row[i] for i in keep] for row in self.rows]


def report_tables(report: dict) -> list[Table]:
    """The report's tables; every number is taken verbatim from the report."""
    fits, sel = report["fits"], report["model_selection"]
    tables = [
        Table(
            "Model comparison", "model_selection.csv",
            [("model", "model"), ("xi", "xi"), ("log-lik", None), (None, "nllh"),
             ("AIC", "aic"), (None, "selected")],
            [[name, fits[name]["params"]["xi"], -fits[name]["nllh"], fits[name]["nllh"],
              sel["aic"][name], sel["selected"] == name] for name in ("gumbel", "gev")],
        ),
        Table(
            "Likelihood-ratio test", None,
            [(h, None) for h in ("D", "df", "critical(95%)", "reject", "selected")],
            [[sel["lrt"]["D"], sel["lrt"]["df"], sel["lrt"]["critical_95"],
              sel["lrt"]["reject"], sel["selected"]]],
        ),
    ]

    if report.get("resampling"):
        keys = ("estimate", "bias", "se", "ratio", "rmse", "corrected", "verdicts")
        tables.append(Table(
            "Resampling bias and standard error", "resampling.csv",
            [("method", "method"), ("param", "param"), ("estimate", "estimate"), ("bias", "bias"),
             ("se", "se"), ("|bias|/se", "ratio"), ("rmse", "rmse"),
             ("corrected", "corrected"), ("verdict", "verdict")],
            [[method, label, *(rep[k][i] for k in keys)]
             for method, rep in report["resampling"].items()
             for i, label in enumerate(rep["labels"])],
        ))

    if report.get("return_levels"):
        rl = report["return_levels"]
        tables.append(Table(
            f"Return levels (tau={_fmt(rl['tau'])}, "
            f"{'one-sided' if rl['one_sided'] else 'two-sided'}, basis={rl['basis']})",
            "return_levels.csv",
            [("period", "period"), (None, "p"), ("level", "level"), (None, "variance"),
             ("lower", "lower"), ("upper", "upper")],
            [[r[k] for k in ("period", "p", "level", "variance", "lower", "upper")]
             for r in rl["rows"]],
        ))

    if report.get("order_statistics"):
        os_sec = report["order_statistics"]
        tables.append(Table(
            f"Order statistics P(X_(r:{os_sec['n']}) <= {_fmt(os_sec['x'])})",
            "order_statistics.csv",
            [("r", "r"), ("probability", "prob")],
            [[r["r"], r["prob"]] for r in os_sec["rows"]],
        ))

    if report.get("holdout"):
        tables.append(Table(
            f"Holdout values {report['holdout']['values']} vs return levels", None,
            [(h, None) for h in ("period", "level", "n_under", "n_total")],
            [[c["period"], c["level"], sum(c["under"]), len(c["under"])]
             for c in report["holdout"]["comparisons"]],
        ))
    return tables


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
    return "\n\n".join(_table(t.title, *t.form(csv=False)) for t in report_tables(report)) + "\n"
