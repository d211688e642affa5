"""Byte-for-byte regression of ``blockmax report`` output.

``tests/data/maxima.txt`` is the README input (``blockmax simulate --mu 79
--sigma 21 --n 129 --seed 101 --start-year 1881``).  ``report_readme/``
holds the report.json and CSVs of the README ``report`` example, and
``report_gev/`` those of the same run with the GEV model forced and B=199,
on the numpy kernels, with the full-sample fits by Newton steps on the
standardized sample and the refits by Newton steps from the full-sample
estimate.  The batched replicate engine and the
one-refit-at-a-time loop write the same bytes there.
"""

import contextlib
import io
from pathlib import Path

import pytest

from blockmax.cli import main

DATA = Path(__file__).with_name("data")
README_FLAGS = [
    "--boot-B", "999", "--seed", "4",
    "--ostat-x", "100", "--ostat-ranks", "2,4,5,8,10", "--holdout", "106.2,104,60.8,73.8",
    "--format", "table",
]
CASES = {
    "report_readme": README_FLAGS,
    "report_gev": README_FLAGS + ["--model", "gev", "--boot-B", "199"],
}


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


def test_input_is_the_readme_simulation(tmp_path):
    out = tmp_path / "maxima.txt"
    _run(["simulate", "--mu", "79", "--sigma", "21", "--n", "129", "--seed", "101",
          "--start-year", "1881", "--out", str(out)])
    assert out.read_bytes() == (DATA / "maxima.txt").read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_files_are_byte_identical(tmp_path, case):
    _run(["report", str(DATA / "maxima.txt"), *CASES[case], "--out-dir", str(tmp_path)])
    expected = {p.name: p.read_bytes() for p in (DATA / case).iterdir()}
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(written) == sorted(expected)
    for name, data in expected.items():
        assert written[name] == data, name
