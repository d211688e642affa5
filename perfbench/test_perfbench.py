"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402 - every workload, by-hand ones too
_runs = {}


def bench(workload, seed=1, trace=0, cwd=ROOT):
    """(exit code, stdout lines) of one smoke run; runs are cached per argument set."""
    key = (workload, seed, trace, cwd)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
             "--seconds", "0.5", "--trace", str(trace), "--smoke"],
            cwd=cwd, capture_output=True, text=True, timeout=300,
        )
        _runs[key] = (proc.returncode, proc.stdout.splitlines())
    return _runs[key]


def result(lines):
    return json.loads(lines[-1])


def field(lines, prefix):
    return next(line.split()[1] for line in lines if line.startswith(prefix))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_match_spec(workload, trace, section):
    code, lines = bench(workload, trace=trace)
    assert code == 0, "\n".join(lines)
    out = result(lines)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_metric_set(workload):
    _, one = bench(workload, seed=1)
    code, two = bench(workload, seed=2)
    assert code == 0, "\n".join(two)
    assert field(one, "inputs") != field(two, "inputs")
    assert set(result(one)["metrics"]) == set(result(two)["metrics"])


def test_same_seed_gives_identical_report():
    _, first = bench("report-standard", seed=1)
    _runs.pop(("report-standard", 1, 0, ROOT))
    _, again = bench("report-standard", seed=1)
    assert field(first, "inputs") == field(again, "inputs")
    assert field(first, "outputs") == field(again, "outputs")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench(SPEC["workloads"][0]["name"], cwd=tmp_path)
    assert code != 0
    assert not lines or not lines[-1].startswith("{")


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    import run

    assert run.tail([3.0, 1.0, 2.0]) == (50.0, 2.0)
    q, value = run.tail([float(i) for i in range(100)])
    assert q == pytest.approx(90.0) and value == pytest.approx(89.1)
