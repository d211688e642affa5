import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blockmax import cli
from blockmax.cli import main

README_INPUT = Path(__file__).with_name("data") / "maxima.txt"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def data_file(tmp_path, capsys):
    path = tmp_path / "maxima.txt"
    code = main(["simulate", "--mu", "79", "--sigma", "21", "--n", "129",
                 "--seed", "101", "--start-year", "1881", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return path


class TestSimulate:
    def test_writes_header_table(self, data_file):
        lines = data_file.read_text().strip().split("\n")
        assert lines[0] == "Year data"
        assert len(lines) == 130
        assert lines[1].startswith("1881 ")

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "simulate", "--mu", "0", "--sigma", "1",
                         "--n", "5", "--seed", "42")
        _, out2, _ = run(capsys, "simulate", "--mu", "0", "--sigma", "1",
                         "--n", "5", "--seed", "42")
        assert out1 == out2


class TestFit:
    def test_json_output(self, data_file, capsys):
        code, out, _ = run(capsys, "fit", str(data_file), "--model", "gumbel",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] == "gumbel"
        assert abs(payload["params"]["mu"] - 79) < 6
        assert payload["converged"] is True

    def test_table_output(self, data_file, capsys):
        code, out, _ = run(capsys, "fit", str(data_file))
        assert code == 0 and "nllh" in out


class TestRlevelAndOstat:
    def test_rlevel_with_direct_params(self, capsys):
        code, out, _ = run(capsys, "rlevel", "ignored.txt",
                           "--params", "78.70124,21.11317",
                           "--periods", "4,10,40,100", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        levels = [r["level"] for r in rows]
        assert np.allclose(levels, [105.0061, 126.2136, 156.3185, 175.8250], atol=5e-4)

    def test_ostat_with_direct_params(self, capsys):
        code, out, _ = run(capsys, "ostat", "ignored.txt",
                           "--params", "78.70124,21.11317",
                           "--x", "100", "--ranks", "2,4,5,8,10", "--n", "10",
                           "--format", "json")
        assert code == 0
        probs = [r["prob"] for r in json.loads(out)["rows"]]
        assert np.allclose(
            probs, [0.99983162, 0.98818640, 0.94843246, 0.36806786, 0.02607971], atol=1e-6
        )

    @pytest.mark.parametrize("command, flags", [
        ("rlevel", "--model gev"), ("rlevel", "--tau 0.1"), ("rlevel", "--one-sided"),
        ("rlevel", "--bias-correct on"), ("ostat", "--model gumbel"), ("ostat", "--bias-correct off"),
    ])
    def test_fit_flags_with_params_exit_2(self, capsys, command, flags):
        required = ["--x", "100", "--ranks", "2"] if command == "ostat" else []
        code, out, err = run(capsys, command, "ignored.txt", "--params", "78.7,21.1",
                             *required, *flags.split())
        assert code == 2 and out == ""
        assert f"{flags.split()[0]} has no effect with --params" in err

    def test_rlevel_from_fit(self, data_file, capsys):
        code, out, _ = run(capsys, "rlevel", str(data_file), "--model", "gumbel",
                           "--bias-correct", "off", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert all(r["lower"] < r["level"] < r["upper"] for r in rows)


class TestReport:
    def test_full_report_files(self, data_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "report", str(data_file), "--boot-B", "49",
                           "--seed", "3", "--out-dir", str(out_dir),
                           "--ostat-x", "100", "--ostat-ranks", "2,5,10",
                           "--holdout", "106.2,104,60.8,73.8",
                           "--format", "table")
        assert code == 0
        for name in ("report.json", "model_selection.csv", "resampling.csv",
                     "return_levels.csv", "order_statistics.csv",
                     "probability_plot.csv", "quantile_plot.csv",
                     "density_overlay.csv", "return_curve.csv"):
            assert (out_dir / name).exists(), name
        report = json.loads((out_dir / "report.json").read_text())
        assert report["schema"] == "blockmax-report/1"
        assert "Model comparison" in out

    def test_csv_format_lists_only_the_files_it_wrote(self, data_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "diag", str(data_file), "--model", "gumbel",
                           "--bias-correct", "off", "--out-dir", str(out_dir))
        assert code == 0 and ".svg" in out
        code, out, _ = run(capsys, "report", str(data_file), "--model", "gumbel",
                           "--boot-B", "0", "--bias-correct", "off",
                           "--out-dir", str(out_dir), "--format", "csv")
        assert code == 0
        listed = out.split()
        assert listed == sorted(listed) and not any(p.endswith(".svg") for p in listed)
        assert {Path(p).name for p in listed} == {p.name for p in out_dir.iterdir()
                                                  if p.suffix != ".svg"}

    def test_byte_identical_reports(self, data_file, tmp_path, capsys):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code, _, _ = run(capsys, "report", str(data_file), "--boot-B", "29",
                             "--seed", "3", "--out-dir", str(d), "--format", "table")
            assert code == 0
        assert (dirs[0] / "report.json").read_bytes() == (dirs[1] / "report.json").read_bytes()

    def test_csv_format_requires_out_dir(self, data_file, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_workflow", lambda *args: calls.append(args))
        code, _, err = run(capsys, "report", str(data_file), "--format", "csv",
                           "--boot-B", "0")
        assert code == 2 and "out-dir" in err
        assert calls == []  # rejected before any stage ran

    def test_env_seed_default(self, data_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EVT_SEED", "123")
        out_dir = tmp_path / "env"
        code, _, _ = run(capsys, "report", str(data_file), "--boot-B", "9",
                         "--out-dir", str(out_dir), "--format", "table")
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["seed"] == 123


class TestDiag:
    def test_writes_plot_files(self, data_file, tmp_path, capsys):
        out_dir = tmp_path / "plots"
        code, out, _ = run(capsys, "diag", str(data_file), "--model", "gumbel",
                           "--bias-correct", "off", "--out-dir", str(out_dir))
        assert code == 0
        for stem in ("probability_plot", "quantile_plot", "density_overlay", "return_curve"):
            assert (out_dir / f"{stem}.csv").exists()
            svg = (out_dir / f"{stem}.svg").read_text()
            assert 'viewBox="0 0 640 480"' in svg


class TestResampleCommand:
    def test_jackknife_only(self, data_file, capsys):
        code, out, _ = run(capsys, "resample", str(data_file), "--model", "gumbel",
                           "--method", "jackknife", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert "jackknife" in payload and "bootstrap" not in payload
        assert payload["jackknife"]["labels"] == ["mu", "sigma"]


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "fit", "no_such_file.txt")
        assert code == 2 and "error" in err

    def test_sample_too_small(self, tmp_path, capsys):
        path = tmp_path / "tiny.txt"
        path.write_text("Year data\n2001 10.0\n2002 11.0\n")
        code, _, err = run(capsys, "fit", str(path))
        assert code == 2

    def test_exit_code_mapping(self):
        from blockmax.cli import _exit_code
        from blockmax.inference import ConvergenceError
        from blockmax.resampling import ResamplingError

        assert _exit_code(ConvergenceError("x")) == 3
        assert _exit_code(ResamplingError("x")) == 4
        assert _exit_code(ValueError("x")) == 2

    def test_tie_dominated_fit_prints_only_the_error(self, tmp_path):
        # the search walks sigma toward 0 and overflows (x - mu)/sigma on the
        # way; a fresh interpreter shows every warning the default filters let through
        path = tmp_path / "tied.txt"
        values = [5.0] * 29 + [5.5]
        path.write_text("Year data\n" + "".join(f"{1900 + i} {v}\n" for i, v in enumerate(values)))
        script = "import sys; from blockmax.cli import main; sys.exit(main(sys.argv[1:]))"
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", script, "fit", str(path), "--model", "gev"],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "collapsed" in lines[0], proc.stderr

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["fit", "file.txt", "--model", "weibull"])
        assert err.value.code == 2


@pytest.mark.parametrize("command, flags", [
    ("fit", "--tau 0.1"), ("fit", "--one-sided"), ("fit", "--bias-correct on"),
    ("fit", "--out-dir d"), ("fit", "--seed 1"), ("fit", "--boot-B 9"),
    ("resample", "--tau 0.1"), ("resample", "--one-sided"), ("resample", "--bias-correct on"),
    ("resample", "--out-dir d"), ("rlevel", "--out-dir d"), ("rlevel", "--seed 1"),
    ("ostat", "--tau 0.1"), ("ostat", "--one-sided"), ("ostat", "--out-dir d"),
    ("ostat", "--periods 10"), ("diag", "--format json"), ("diag", "--seed 1"),
])
def test_a_flag_the_subcommand_ignores_exits_2(capsys, command, flags):
    required = ["--x", "100", "--ranks", "2"] if command == "ostat" else []
    with pytest.raises(SystemExit) as err:
        main([command, "maxima.txt", *required, *flags.split()])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flags}" in capsys.readouterr().err


def _stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(a) for a in argv]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def gev_reports(tmp_path_factory):
    """Output directory of the README report, GEV forced and B=99, per --bias-correct."""
    dirs = {}

    def get(policy):
        if policy not in dirs:
            dirs[policy] = tmp_path_factory.mktemp(f"report_{policy}")
            _stdout("report", README_INPUT, "--model", "gev", "--boot-B", "99", "--seed", "4",
                    "--bias-correct", policy, "--ostat-x", "100", "--ostat-ranks", "2,4,5,8,10",
                    "--out-dir", dirs[policy])
        return dirs[policy]
    return get


FIT_KEYS = ("params", "se", "nllh", "regularity", "converged")
PLOTS = ("probability_plot.csv", "quantile_plot.csv", "density_overlay.csv", "return_curve.csv")


def _plots(directory):
    return {name: (directory / name).read_bytes() for name in PLOTS}


def _ostat_case(policy):
    return (policy, ["ostat", "--bias-correct", policy, "--x", "100", "--ranks", "2,4,5,8,10",
                     "--format", "json"],
            lambda out, _: json.loads(out)["rows"],
            lambda report, _: report["order_statistics"]["rows"])


# (--bias-correct of the report, subcommand and flags, its result, the report's)
SAME_AS_REPORT = {
    "fit": ("auto", ["fit", "--format", "json"],
            lambda out, _: {k: json.loads(out)[k] for k in FIT_KEYS},
            lambda report, _: {k: report["fits"]["gev"][k] for k in FIT_KEYS}),
    "resample": ("auto", ["resample", "--boot-B", "99", "--seed", "4", "--format", "json"],
                 lambda out, _: {k: v for k, v in json.loads(out).items() if k != "model"},
                 lambda report, _: report["resampling"]),
    "rlevel": ("auto", ["rlevel", "--format", "json"],
               lambda out, _: json.loads(out)["rows"],
               lambda report, _: report["return_levels"]["rows"]),
    "diag": ("auto", ["diag"], lambda _, directory: _plots(directory),
             lambda _, directory: _plots(directory)),
    **{f"ostat-{policy}": _ostat_case(policy) for policy in ("auto", "on", "off")},
}


@pytest.mark.parametrize("case", SAME_AS_REPORT)
def test_subcommand_matches_the_report(case, gev_reports, tmp_path, monkeypatch):
    policy, (command, *flags), got, want = SAME_AS_REPORT[case]
    report_dir = gev_reports(policy)
    report = json.loads((report_dir / "report.json").read_text())
    monkeypatch.chdir(tmp_path)  # diag writes its files into the working directory
    out = _stdout(command, README_INPUT, "--model", "gev", *flags)
    assert got(out, tmp_path) == want(report, report_dir)
