import numpy as np
import pytest

import blockmax as bm
from blockmax import IngestError, MaximaSample, ingest


def write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestMaximaSample:
    def test_basic(self):
        s = MaximaSample([1.0, 2.0, 3.0], years=[1990, 1991, 1995])
        assert len(s) == 3
        assert s.values.dtype == np.float64

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            MaximaSample([])
        with pytest.raises(ValueError):
            MaximaSample([1.0, np.nan])
        with pytest.raises(ValueError):
            MaximaSample([1.0, np.inf])

    def test_rejects_bad_years(self):
        with pytest.raises(ValueError):
            MaximaSample([1.0, 2.0], years=[1990])
        with pytest.raises(ValueError):
            MaximaSample([1.0, 2.0], years=[1991, 1990])
        with pytest.raises(ValueError):
            MaximaSample([1.0, 2.0], years=[1990, 1990])


class TestIngest:
    def test_whitespace_table(self, tmp_path):
        rows = "\n".join(f"{1881 + i} {50 + (i % 7) * 3.5}" for i in range(129))
        path = write(tmp_path, "Year data\n" + rows + "\n")
        s = ingest(path)
        assert len(s) == 129
        assert s.years[0] == 1881 and s.years[-1] == 2009

    def test_csv_table(self, tmp_path):
        path = write(tmp_path, "Year,data\n2001,10.5\n2002,11.5\n2003,9.0\n", "d.csv")
        s = ingest(path)
        assert np.allclose(s.values, [10.5, 11.5, 9.0])
        assert list(s.years) == [2001, 2002, 2003]

    def test_malformed_row_skipped_with_warning(self, tmp_path):
        path = write(tmp_path, "Year data\n2001 10.5\n2002 oops\n2003 9.0\n")
        with pytest.warns(UserWarning, match="skipped 1"):
            s = ingest(path)
        assert len(s) == 2

    def test_missing_value_skipped(self, tmp_path):
        path = write(tmp_path, "Year,data\n2001,10.5\n2002,NA\n2003,9.0\n", "d.csv")
        with pytest.warns(UserWarning):
            s = ingest(path)
        assert len(s) == 2

    def test_too_many_bad_rows(self, tmp_path):
        path = write(tmp_path, "Year data\n" + "\n".join(f"{2000+i} x" for i in range(12)))
        with pytest.raises(IngestError, match="bad rows"):
            ingest(path, max_bad=10)

    def test_empty_file(self, tmp_path):
        with pytest.raises(IngestError):
            ingest(write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(IngestError, match="no usable rows"):
            ingest(write(tmp_path, "Year data\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            ingest(tmp_path / "absent.txt")

    def test_custom_columns(self, tmp_path):
        path = write(tmp_path, "season,peak,station\n1950,12.0,X\n1951,14.0,X\n", "d.csv")
        s = ingest(path, year_col="season", value_col="peak")
        assert list(s.years) == [1950, 1951]
        assert np.allclose(s.values, [12.0, 14.0])

    def test_unknown_column_errors(self, tmp_path):
        path = write(tmp_path, "Year,data\n2001,10.0\n", "d.csv")
        with pytest.raises(IngestError, match="no value column"):
            ingest(path, value_col="rainfall")

    def test_no_year_column_is_fine(self, tmp_path):
        path = write(tmp_path, "data other\n10.0 1\n11.0 2\n")
        s = ingest(path)
        assert s.years is None and len(s) == 2

    def test_row_order_preserved(self, tmp_path):
        path = write(tmp_path, "data\n5.0\n3.0\n4.0\n")
        s = ingest(path)
        assert list(s.values) == [5.0, 3.0, 4.0]

    def test_unknown_format_rejected(self, tmp_path):
        path = write(tmp_path, "Year,data\n2001,10.0\n2002,11.0\n", "d.csv")
        with pytest.raises(IngestError, match="unknown format"):
            ingest(path, fmt="nonsense")


_NON_FINITE_CALLS = {
    "fit_gev": lambda x: bm.fit_gev(x),
    "profile": lambda x: bm.profile(x, model="gev", which="xi"),
    "bootstrap": lambda x: bm.bootstrap(x, np.mean, b=20, seed=0),
    "jackknife": lambda x: bm.jackknife(x, np.mean),
    "nllh_gev": lambda x: bm.nllh_gev(x, bm.GevParams(79.0, 21.0, 0.1)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", list(_NON_FINITE_CALLS))
def test_raw_arrays_with_non_finite_values_are_rejected(call, bad):
    # as MaximaSample rejects them, with its message
    x = bm.sample(bm.GevParams(79.0, 21.0, 0.1), 40, seed=1).values.copy()
    x[5] = bad
    with pytest.raises(ValueError, match="^values must all be finite$"):
        _NON_FINITE_CALLS[call](x)
