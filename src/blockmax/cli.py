"""Command-line interface.

Subcommands: fit, diag, resample, rlevel, ostat, simulate, report (the full
workflow).  Each subcommand runs the workflow stages it needs and takes only
the flags it reads.  Exit codes: 0 success, 2 input error, 3 convergence
failure, 4 resampling failure.  EVT_SEED provides the default seed; --seed
overrides.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .data import IngestError, ingest
from .diagnostics import PlotKind, PlotSeries, series_to_csv, series_to_svg
from .gev import GevParams, sample as draw_sample
from .inference import ConvergenceError
from .resampling import ResamplingError
from .returns import return_level
from .workflow import (
    WorkflowConfig, WorkflowError, correct, diagnostic_series, order_statistics, render_tables,
    report_tables, resample, resolve_seed, return_levels, round_tree, run_workflow, select_model,
)

_PLOT_FILES = {
    PlotKind.PROBABILITY_PLOT: "probability_plot",
    PlotKind.QUANTILE_PLOT: "quantile_plot",
    PlotKind.RETURN_LEVEL_CURVE: "return_curve",
    PlotKind.DENSITY_OVERLAY: "density_overlay",
}

# the flags subcommands share; each subcommand registers only those it reads
_FLAGS = {
    "--model": dict(choices=["gev", "gumbel", "auto"], default="auto"),
    "--seed": dict(type=int, default=None, help="RNG seed (default: EVT_SEED or 0)"),
    "--boot-B": dict(type=int, default=999, help="bootstrap replicates"),
    "--tau": dict(type=float, default=0.05, help="two-sided error level"),
    "--one-sided": dict(action="store_true", help="use the one-sided normal quantile"),
    "--bias-correct": dict(choices=["auto", "on", "off"], default="auto"),
    "--periods": dict(default="4,10,40,100"),
    "--out-dir": dict(default=None, help="directory for report/table/plot files"),
    "--format": dict(choices=["csv", "json", "table"], default="table"),
}
# the flags that act on the fit, which rlevel and ostat skip with --params:
# given together with it, they are rejected
_FIT_FLAGS = {
    "rlevel": ("--model", "--tau", "--one-sided", "--bias-correct"),
    "ostat": ("--model", "--bias-correct"),
}


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(",") if t.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t.strip())


def _parse_params(text: str) -> GevParams:
    parts = _parse_floats(text)
    if len(parts) not in (2, 3):
        raise ValueError("--params expects MU,SIGMA or MU,SIGMA,XI")
    return GevParams(*parts)


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _check_fit_flags(args, command: str):
    """Reject ``command``'s fit flags next to --params, else give them their defaults."""
    flags = _FIT_FLAGS[command]
    given = [flag for flag in flags if hasattr(args, _dest(flag))]
    if args.params and given:
        raise ValueError(f"{given[0]} has no effect with --params")
    for flag in flags:
        if not hasattr(args, _dest(flag)):
            setattr(args, _dest(flag), _FLAGS[flag].get("default", False))


def _load_sample(args):
    return ingest(args.data, fmt=args.input_format, year_col=args.year_col,
                  value_col=args.value_col, max_bad=args.max_bad)


def _corrected_fit(args):
    """The sample, the fit of ``--model`` and its ``--bias-correct`` correction,
    as in the report (whose correction source is the jackknife)."""
    sample = _load_sample(args)
    fit = select_model(sample, args.model, compare=False).fit
    resampling = resample(sample.values, fit, boot_b=0, run_jackknife=args.bias_correct != "off")
    return sample, fit, correct(fit, resampling, args.bias_correct)


def _emit(args, payload: dict, text: str):
    if args.format == "table":
        print(text, end="")
    else:
        print(json.dumps(payload, indent=2))


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _write_series(out_dir: Path, series, svg: bool) -> list[Path]:
    """Write the plot series as CSV (and SVG); the paths written."""
    paths = []
    for s in series:
        stem = out_dir / _PLOT_FILES[s.kind]
        paths.append(_write(stem.with_suffix(".csv"), series_to_csv(s)))
        if svg:
            paths.append(_write(stem.with_suffix(".svg"), series_to_svg(s)))
    return paths


def _write_report_files(out_dir: Path, report: dict) -> list[Path]:
    """Write report.json, the CSV tables and the plot series; the paths written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [_write(out_dir / "report.json", json.dumps(report, indent=2) + "\n")]
    for table in report_tables(report):
        if table.csv:
            header, rows = table.form(csv=True)
            lines = [",".join(header)]
            lines += [",".join("" if c is None else f"{c}" for c in row) for row in rows]
            paths.append(_write(out_dir / table.csv, "\n".join(lines) + "\n"))
    series = [
        PlotSeries(PlotKind(kind), np.asarray(s["points"]),
                   None if s["bands"] is None else np.asarray(s["bands"]))
        for kind, s in (report.get("diagnostics") or {}).items()
    ]
    return paths + _write_series(out_dir, series, svg=False)


def _cmd_fit(args):
    fit = select_model(_load_sample(args), args.model, compare=False).fit
    payload = round_tree({
        "model": fit.model,
        "params": {name: getattr(fit.params, name)
                   for name in ("mu", "sigma", "xi")[: fit.n_params]},
        "se": None if fit.se is None else list(fit.se),
        "nllh": fit.nllh, "regularity": fit.regularity.value, "converged": fit.opt.converged,
    })
    lines = [f"model: {payload['model']}  (regularity: {payload['regularity']})"]
    for i, (k, v) in enumerate(payload["params"].items()):
        se = "NA" if payload["se"] is None else f"{payload['se'][i]}"
        lines.append(f"  {k} = {v}  (se {se})")
    lines.append(f"  nllh = {payload['nllh']}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def _cmd_diag(args):
    sample, fit, correction = _corrected_fit(args)
    series = diagnostic_series(sample.values, fit, _parse_floats(args.periods), tau=args.tau,
                               one_sided=args.one_sided, sigma_corrected=correction.sigma)
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    print("\n".join(str(p) for p in _write_series(out_dir, series, svg=True)))
    return 0


def _cmd_resample(args):
    sample = _load_sample(args)
    fit = select_model(sample, args.model, compare=False).fit
    sections = round_tree(resample(
        sample.values, fit, boot_b=0 if args.method == "jackknife" else args.boot_B,
        seed=args.seed, run_jackknife=args.method != "bootstrap",
    ))
    lines = [f"  {method:9s} {label:6s} bias={rep['bias'][i]} "
             f"se={rep['se'][i]} ratio={rep['ratio'][i]} verdict={rep['verdicts'][i]}\n"
             for method, rep in sections.items() for i, label in enumerate(rep["labels"])]
    _emit(args, {"model": fit.model, **sections}, "".join(lines))
    return 0


def _cmd_rlevel(args):
    _check_fit_flags(args, "rlevel")
    periods = _parse_floats(args.periods)
    if args.params:
        params = _parse_params(args.params)
        payload = round_tree({"basis": "given_params", "rows": [
            {"period": t, "level": return_level(params, 1.0 / t)} for t in periods]})
        _emit(args, payload, "".join(f"  {r['period']:g}-block level = {r['level']}\n"
                                     for r in payload["rows"]))
        return 0
    _, fit, correction = _corrected_fit(args)
    levels = return_levels(fit, periods, tau=args.tau, one_sided=args.one_sided,
                           sigma_corrected=correction.sigma)
    payload = round_tree({"model": fit.model, "basis": levels["basis"], "tau": levels["tau"],
                          "one_sided": levels["one_sided"], "rows": levels["rows"]})
    _emit(args, payload, "".join(f"  {r['period']:g}-block level = {r['level']}  "
                                 f"[{r['lower']}, {r['upper']}]\n" for r in payload["rows"]))
    return 0


def _cmd_ostat(args):
    _check_fit_flags(args, "ostat")
    ranks = _parse_ints(args.ranks)
    params = _parse_params(args.params) if args.params else _corrected_fit(args)[2].params
    payload = round_tree(order_statistics(params, args.x, args.n, ranks))
    _emit(args, payload, "".join(f"  P(X_({r['r']}:{args.n}) <= {args.x:g}) = {r['prob']}\n"
                                 for r in payload["rows"]))
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
    if args.format == "csv" and not args.out_dir:
        raise IngestError("--format csv requires --out-dir")
    sample = _load_sample(args)
    config = WorkflowConfig(
        model=args.model, boot_b=args.boot_B, seed=args.seed, periods=_parse_floats(args.periods),
        tau=args.tau, one_sided=args.one_sided, bias_correct=args.bias_correct,
        order_x=args.ostat_x, order_n=args.ostat_n,
        order_ranks=_parse_ints(args.ostat_ranks) if args.ostat_ranks else (),
        holdout=_parse_floats(args.holdout) if args.holdout else (),
    )
    report = run_workflow(sample, config)
    written = _write_report_files(Path(args.out_dir), report) if args.out_dir else []
    if args.format == "csv":
        print("\n".join(str(p) for p in sorted(written)))
    else:
        _emit(args, report, render_tables(report))
    return 0


def _subcommand(sub, name, func, help, *flags):
    """A subcommand reading a table of maxima and the shared ``flags``."""
    p = sub.add_parser(name, help=help)
    p.add_argument("data", help="input table of block maxima")
    p.add_argument("--input-format", choices=["auto", "whitespace", "csv"], default="auto")
    p.add_argument("--year-col", default=None, help="year column name (default: match 'year')")
    p.add_argument("--value-col", default=None, help="value column name (default: first non-year)")
    p.add_argument("--max-bad", type=int, default=10, help="tolerated bad rows before failing")
    for flag in flags:
        spec = _FLAGS[flag]
        if flag in _FIT_FLAGS.get(name, ()):  # absent unless given; see _check_fit_flags
            spec = dict(spec, default=argparse.SUPPRESS)
        p.add_argument(flag, **spec)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockmax", description="Block-maxima extreme value analysis"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _subcommand(sub, "fit", _cmd_fit, "fit the GEV/Gumbel model", "--model", "--format")

    _subcommand(sub, "diag", _cmd_diag, "write diagnostic plot series", "--model", "--tau",
                "--one-sided", "--bias-correct", "--periods", "--out-dir")

    p = _subcommand(sub, "resample", _cmd_resample, "bootstrap/jackknife uncertainty",
                    "--model", "--seed", "--boot-B", "--format")
    p.add_argument("--method", choices=["both", "bootstrap", "jackknife"], default="both")

    p = _subcommand(sub, "rlevel", _cmd_rlevel, "return levels with confidence bounds",
                    "--model", "--tau", "--one-sided", "--bias-correct", "--periods", "--format")
    p.add_argument("--params", default=None, help="MU,SIGMA[,XI]: skip fitting, levels only")

    p = _subcommand(sub, "ostat", _cmd_ostat, "order-statistic exceedance probabilities",
                    "--model", "--bias-correct", "--format")
    p.add_argument("--x", type=float, required=True, help="threshold value")
    p.add_argument("--ranks", required=True, help="comma-separated ranks")
    p.add_argument("--n", type=int, default=10, help="sample size of the order statistic")
    p.add_argument("--params", default=None, help="MU,SIGMA[,XI]: skip fitting")

    p = sub.add_parser("simulate", help="draw a synthetic sample to a table")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--xi", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--start-year", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = _subcommand(sub, "report", _cmd_report,
                    "full workflow: fits, selection, resampling, levels", *_FLAGS)
    p.add_argument("--ostat-x", type=float, default=None)
    p.add_argument("--ostat-ranks", default=None)
    p.add_argument("--ostat-n", type=int, default=10)
    p.add_argument("--holdout", default=None, help="comma-separated held-out maxima")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - mapped to documented exit codes
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc.cause if isinstance(exc, WorkflowError) else exc)


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, ConvergenceError):
        return 3
    if isinstance(exc, ResamplingError):
        return 4
    return 2


if __name__ == "__main__":
    sys.exit(main())
