"""Command-line interface.

Subcommands: fit, diag, resample, rlevel, ostat, simulate, report (the full
workflow).  Exit codes: 0 success, 2 input error, 3 convergence failure,
4 resampling failure.  EVT_SEED provides the default seed; --seed overrides.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .data import IngestError, MaximaSample, ingest
from .diagnostics import (
    PlotKind,
    density_overlay,
    probability_plot,
    quantile_plot,
    return_curve,
    series_to_csv,
    series_to_svg,
)
from .gev import GevParams, cdf, sample as draw_sample
from .inference import ConvergenceError, Refit, fit_gev, fit_gumbel
from .orderstats import order_cdf
from .resampling import ResamplingError, bootstrap, jackknife, screen
from .returns import return_level, return_level_ci
from .workflow import (
    WorkflowConfig,
    WorkflowError,
    _report_dict,
    _round_tree,
    render_tables,
    resolve_seed,
    run_workflow,
)

_PLOT_FILES = {
    PlotKind.PROBABILITY_PLOT: "probability_plot",
    PlotKind.QUANTILE_PLOT: "quantile_plot",
    PlotKind.RETURN_LEVEL_CURVE: "return_curve",
    PlotKind.DENSITY_OVERLAY: "density_overlay",
}


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(",") if t.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t.strip())


def _parse_params(text: str) -> GevParams:
    parts = _parse_floats(text)
    if len(parts) == 2:
        return GevParams(parts[0], parts[1], 0.0)
    if len(parts) == 3:
        return GevParams(*parts)
    raise ValueError("--params expects MU,SIGMA or MU,SIGMA,XI")


def _add_ingest_flags(p):
    p.add_argument("data", help="input table of block maxima")
    p.add_argument("--input-format", choices=["auto", "whitespace", "csv"], default="auto")
    p.add_argument("--year-col", default=None, help="year column name (default: match 'year')")
    p.add_argument("--value-col", default=None, help="value column name (default: first non-year)")
    p.add_argument("--max-bad", type=int, default=10, help="tolerated bad rows before failing")


def _add_common_flags(p, with_format=True):
    p.add_argument("--model", choices=["gev", "gumbel", "auto"], default="auto")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: EVT_SEED or 0)")
    p.add_argument("--tau", type=float, default=0.05, help="two-sided error level")
    p.add_argument("--one-sided", action="store_true", help="use the one-sided normal quantile")
    p.add_argument("--bias-correct", choices=["auto", "on", "off"], default="auto")
    p.add_argument("--out-dir", default=None, help="directory for report/table/plot files")
    if with_format:
        p.add_argument("--format", choices=["csv", "json", "table"], default="table")


def _load_sample(args) -> MaximaSample:
    return ingest(
        args.data,
        fmt=args.input_format,
        year_col=args.year_col,
        value_col=args.value_col,
        max_bad=args.max_bad,
    )


def _select_fit(sample, model):
    if model == "gumbel":
        return fit_gumbel(sample)
    if model == "gev":
        return fit_gev(sample)
    from .inference import lrt

    gum, gev_ = fit_gumbel(sample), fit_gev(sample)
    return gev_ if lrt(gum, gev_).reject_at_5pct else gum


def _corrected_sigma(sample, fit, bias_correct):
    """Jackknife-based scale correction, mirroring the report workflow."""
    if bias_correct == "off":
        return None
    labels = ("mu", "sigma", "xi")[: fit.n_params]
    rep = jackknife(sample.values, Refit(fit.model), labels=labels)
    verdicts = dict(zip(rep.labels, screen(rep)))
    corrected = dict(zip(rep.labels, rep.corrected))
    if bias_correct == "on" or verdicts["sigma"].value == "correct":
        return float(corrected["sigma"])
    return None


def _emit(args, payload: dict, tables: str | None = None):
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "table" and tables is not None:
        print(tables, end="")
    else:
        print(json.dumps(payload, indent=2))


def _write_series(out_dir: Path, series):
    for s in series:
        stem = _PLOT_FILES[s.kind]
        (out_dir / f"{stem}.csv").write_text(series_to_csv(s))
        (out_dir / f"{stem}.svg").write_text(series_to_svg(s))


def _write_report_files(out_dir: Path, report: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")

    def write_csv(name, header, rows):
        lines = [",".join(header)]
        lines += [",".join("" if c is None else f"{c}" for c in row) for row in rows]
        (out_dir / name).write_text("\n".join(lines) + "\n")

    fits, sel = report["fits"], report["model_selection"]
    write_csv(
        "model_selection.csv",
        ["model", "xi", "nllh", "aic", "selected"],
        [
            [name, fits[name]["params"]["xi"], fits[name]["nllh"],
             sel["aic"][name], sel["selected"] == name]
            for name in ("gumbel", "gev")
        ],
    )
    if report.get("resampling"):
        rows = []
        for method, rep in report["resampling"].items():
            for i, label in enumerate(rep["labels"]):
                rows.append([method, label, rep["estimate"][i], rep["bias"][i], rep["se"][i],
                             rep["ratio"][i], rep["rmse"][i], rep["corrected"][i], rep["verdicts"][i]])
        write_csv("resampling.csv",
                  ["method", "param", "estimate", "bias", "se", "ratio", "rmse", "corrected", "verdict"],
                  rows)
    if report.get("return_levels"):
        write_csv("return_levels.csv",
                  ["period", "p", "level", "variance", "lower", "upper"],
                  [[r["period"], r["p"], r["level"], r["variance"], r["lower"], r["upper"]]
                   for r in report["return_levels"]["rows"]])
    if report.get("order_statistics"):
        os_sec = report["order_statistics"]
        write_csv("order_statistics.csv", ["r", "prob"],
                  [[r["r"], r["prob"]] for r in os_sec["rows"]])

    series_specs = report.get("diagnostics") or {}
    for kind_name, sdict in series_specs.items():
        stem = _PLOT_FILES[PlotKind(kind_name)]
        pts = np.asarray(sdict["points"])
        lines = ["kind,x,y,lower,upper"]
        for i, (x, y) in enumerate(pts):
            lo = hi = ""
            if sdict["bands"] is not None:
                lo, hi = (f"{v:.10g}" for v in sdict["bands"][i])
            lines.append(f"{kind_name},{x:.10g},{y:.10g},{lo},{hi}")
        (out_dir / f"{stem}.csv").write_text("\n".join(lines) + "\n")


def _cmd_fit(args):
    sample = _load_sample(args)
    fit = _select_fit(sample, args.model)
    payload = _round_tree({
        "model": fit.model,
        "params": {"mu": fit.params.mu, "sigma": fit.params.sigma,
                   **({"xi": fit.params.xi} if fit.model == "gev" else {})},
        "se": None if fit.se is None else list(fit.se),
        "nllh": fit.nllh,
        "regularity": fit.regularity.value,
        "converged": fit.opt.converged,
    })
    lines = [f"model: {payload['model']}  (regularity: {payload['regularity']})"]
    for i, (k, v) in enumerate(payload["params"].items()):
        se = "NA" if payload["se"] is None else f"{payload['se'][i]}"
        lines.append(f"  {k} = {v}  (se {se})")
    lines.append(f"  nllh = {payload['nllh']}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def _cmd_diag(args):
    sample = _load_sample(args)
    fit = _select_fit(sample, args.model)
    sigma_c = _corrected_sigma(sample, fit, args.bias_correct)
    series = [
        probability_plot(sample.values, fit.params),
        quantile_plot(sample.values, fit.params),
        density_overlay(sample.values, fit.params),
    ]
    if args.periods:
        series.append(return_curve(fit, _parse_floats(args.periods), tau=args.tau,
                                   one_sided=args.one_sided, sigma_corrected=sigma_c))
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_series(out_dir, series)
    print("\n".join(str(out_dir / f"{_PLOT_FILES[s.kind]}.{ext}")
                    for s in series for ext in ("csv", "svg")))
    return 0


def _cmd_resample(args):
    sample = _load_sample(args)
    fit = _select_fit(sample, args.model)
    labels = ("mu", "sigma", "xi")[: fit.n_params]
    stat = Refit(fit.model)
    seed = resolve_seed(args.seed)
    payload = {"model": fit.model}
    if args.method in ("both", "bootstrap"):
        rep = bootstrap(sample.values, stat, b=args.boot_B, seed=seed, labels=labels)
        payload["bootstrap"] = _report_dict(rep, screen(rep))
    if args.method in ("both", "jackknife"):
        rep = jackknife(sample.values, stat, labels=labels)
        payload["jackknife"] = _report_dict(rep, screen(rep))
    payload = _round_tree(payload)
    rows = []
    for method in ("bootstrap", "jackknife"):
        if method in payload:
            rep = payload[method]
            for i, label in enumerate(rep["labels"]):
                rows.append(f"  {method:9s} {label:6s} bias={rep['bias'][i]} "
                            f"se={rep['se'][i]} ratio={rep['ratio'][i]} verdict={rep['verdicts'][i]}")
    _emit(args, payload, "\n".join(rows) + "\n")
    return 0


def _cmd_rlevel(args):
    periods = _parse_floats(args.periods)
    if args.params:
        params = _parse_params(args.params)
        payload = {"basis": "given_params",
                   "rows": [{"period": t, "level": return_level(params, 1.0 / t)} for t in periods]}
        payload = _round_tree(payload)
        lines = [f"  {r['period']:g}-block level = {r['level']}" for r in payload["rows"]]
        _emit(args, payload, "\n".join(lines) + "\n")
        return 0
    sample = _load_sample(args)
    fit = _select_fit(sample, args.model)
    sigma_c = _corrected_sigma(sample, fit, args.bias_correct)
    rows = []
    for t in periods:
        est = return_level_ci(fit, 1.0 / t, tau=args.tau,
                              one_sided=args.one_sided, sigma_corrected=sigma_c)
        rows.append({"period": t, "p": est.p, "level": est.level,
                     "variance": est.variance, "lower": est.ci[0], "upper": est.ci[1]})
    payload = _round_tree({
        "model": fit.model,
        "basis": "bias_corrected" if sigma_c is not None else "raw_fit",
        "tau": args.tau, "one_sided": args.one_sided, "rows": rows,
    })
    lines = [f"  {r['period']:g}-block level = {r['level']}  [{r['lower']}, {r['upper']}]"
             for r in payload["rows"]]
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def _cmd_ostat(args):
    ranks = _parse_ints(args.ranks)
    if args.params:
        params = _parse_params(args.params)
    else:
        sample = _load_sample(args)
        fit = _select_fit(sample, args.model)
        sigma_c = _corrected_sigma(sample, fit, args.bias_correct)
        params = fit.params if sigma_c is None else GevParams(fit.params.mu, sigma_c, fit.params.xi)
    f_val = cdf(params, args.x)
    payload = _round_tree({
        "x": args.x, "n": args.n, "parent_cdf": f_val,
        "rows": [{"r": r, "prob": order_cdf(f_val, r, args.n)} for r in ranks],
    })
    lines = [f"  P(X_({r['r']}:{args.n}) <= {args.x:g}) = {r['prob']}" for r in payload["rows"]]
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def _cmd_simulate(args):
    params = GevParams(args.mu, args.sigma, args.xi)
    sample = draw_sample(params, args.n, resolve_seed(args.seed))
    lines = ["Year data"]
    lines += [f"{args.start_year + i} {v:.10g}" for i, v in enumerate(sample.values)]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(args.out)
    else:
        print(text, end="")
    return 0


def _cmd_report(args):
    sample = _load_sample(args)
    config = WorkflowConfig(
        model=args.model,
        boot_b=args.boot_B,
        seed=args.seed,
        periods=_parse_floats(args.periods),
        tau=args.tau,
        one_sided=args.one_sided,
        bias_correct=args.bias_correct,
        order_x=args.ostat_x,
        order_n=args.ostat_n,
        order_ranks=_parse_ints(args.ostat_ranks) if args.ostat_ranks else (),
        holdout=_parse_floats(args.holdout) if args.holdout else (),
    )
    report = run_workflow(sample, config)
    if args.format == "csv" and not args.out_dir:
        raise IngestError("--format csv requires --out-dir")
    if args.out_dir:
        _write_report_files(Path(args.out_dir), report)
    if args.format == "csv":
        print("\n".join(str(p) for p in sorted(Path(args.out_dir).iterdir())))
    else:
        _emit(args, report, render_tables(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockmax", description="Block-maxima extreme value analysis"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit the GEV/Gumbel model")
    _add_ingest_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("diag", help="write diagnostic plot series")
    _add_ingest_flags(p)
    _add_common_flags(p)
    p.add_argument("--periods", default="4,10,40,100")
    p.set_defaults(func=_cmd_diag)

    p = sub.add_parser("resample", help="bootstrap/jackknife uncertainty")
    _add_ingest_flags(p)
    _add_common_flags(p)
    p.add_argument("--boot-B", type=int, default=999, help="bootstrap replicates")
    p.add_argument("--method", choices=["both", "bootstrap", "jackknife"], default="both")
    p.set_defaults(func=_cmd_resample)

    p = sub.add_parser("rlevel", help="return levels with confidence bounds")
    _add_ingest_flags(p)
    _add_common_flags(p)
    p.add_argument("--periods", default="4,10,40,100")
    p.add_argument("--params", default=None, help="MU,SIGMA[,XI]: skip fitting, levels only")
    p.set_defaults(func=_cmd_rlevel)

    p = sub.add_parser("ostat", help="order-statistic exceedance probabilities")
    _add_ingest_flags(p)
    _add_common_flags(p)
    p.add_argument("--x", type=float, required=True, help="threshold value")
    p.add_argument("--ranks", required=True, help="comma-separated ranks")
    p.add_argument("--n", type=int, default=10, help="sample size of the order statistic")
    p.add_argument("--params", default=None, help="MU,SIGMA[,XI]: skip fitting")
    p.set_defaults(func=_cmd_ostat)

    p = sub.add_parser("simulate", help="draw a synthetic sample to a table")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--xi", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--start-year", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="full workflow: fits, selection, resampling, levels")
    _add_ingest_flags(p)
    _add_common_flags(p)
    p.add_argument("--boot-B", type=int, default=999)
    p.add_argument("--periods", default="4,10,40,100")
    p.add_argument("--ostat-x", type=float, default=None)
    p.add_argument("--ostat-ranks", default=None)
    p.add_argument("--ostat-n", type=int, default=10)
    p.add_argument("--holdout", default=None, help="comma-separated held-out maxima")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except WorkflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc.cause)
    except Exception as exc:  # noqa: BLE001 - mapped to documented exit codes
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, ConvergenceError):
        return 3
    if isinstance(exc, ResamplingError):
        return 4
    return 2


if __name__ == "__main__":
    sys.exit(main())
