"""Block-maxima samples and file ingestion."""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["IngestError", "MaximaSample", "ingest"]

# Field values treated as missing data during ingestion.
_MISSING = {"", "na", "n/a", "nan", "null", "none", "-", "."}


class IngestError(Exception):
    """Raised when an input table cannot be turned into a usable sample."""


@dataclass(frozen=True)
class MaximaSample:
    """Block-maximum observations in file order, with optional year labels."""

    values: np.ndarray
    years: np.ndarray | None = None

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a nonempty 1-D array")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must all be finite")
        object.__setattr__(self, "values", values)
        if self.years is not None:
            years = np.asarray(self.years, dtype=int)
            if years.shape != values.shape:
                raise ValueError("years must match values in length")
            if years.size > 1 and not np.all(np.diff(years) > 0):
                raise ValueError("years must be strictly increasing")
            object.__setattr__(self, "years", years)

    def __len__(self):
        return self.values.size


def as_values(sample) -> np.ndarray:
    """Contiguous float64 view of a MaximaSample or any 1-D array-like of finite values."""
    if isinstance(sample, MaximaSample):
        return sample.values
    arr = np.ascontiguousarray(np.asarray(sample, dtype=float))
    if arr.ndim != 1:
        raise ValueError("sample must be 1-D")
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must all be finite")
    return arr


def _split_rows(text: str, fmt: str):
    if fmt == "csv":
        return [row for row in csv.reader(io.StringIO(text)) if row]
    return [line.split() for line in text.splitlines() if line.strip()]


def _detect_format(text: str) -> str:
    first = next((line for line in text.splitlines() if line.strip()), "")
    return "csv" if "," in first else "whitespace"


def ingest(
    path,
    fmt: str = "auto",
    year_col: str | None = None,
    value_col: str | None = None,
    max_bad: int = 10,
) -> MaximaSample:
    """Read a header table of block maxima from a whitespace or CSV file.

    The header must name the columns; the year column is found by a
    case-insensitive match on "year" (or ``year_col``), the value column is
    ``value_col`` or the first remaining column.  Rows with missing or
    unparseable fields are skipped with a warning; more than ``max_bad`` such
    rows, or an empty result, is an error.  Row order is preserved.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc

    if fmt not in ("auto", "whitespace", "csv"):
        raise IngestError(f"unknown format {fmt!r}")
    rows = _split_rows(text, _detect_format(text) if fmt == "auto" else fmt)
    if not rows:
        raise IngestError(f"{path}: empty file")

    header = [h.strip() for h in rows[0]]
    lowered = [h.lower() for h in header]

    def find(name, what):
        if name.lower() not in lowered:
            raise IngestError(f"{path}: no {what} column {name!r} in header {header}")
        return lowered.index(name.lower())

    yi = find(year_col, "year") if year_col else (lowered.index("year") if "year" in lowered else None)
    if value_col:
        vi = find(value_col, "value")
    else:
        vi = next((i for i in range(len(header)) if i != yi), None)
        if vi is None:
            raise IngestError(f"{path}: no value column in header {header}")

    values, years, bad = [], [], 0
    for row in rows[1:]:
        try:
            fields = [f.strip() for f in row]
            if any(fields[i].lower() in _MISSING for i in ([vi] if yi is None else [vi, yi])):
                raise ValueError("missing field")
            v = float(fields[vi])
            if not np.isfinite(v):
                raise ValueError("non-finite value")
            y = int(float(fields[yi])) if yi is not None else None
        except (ValueError, IndexError):
            bad += 1
            if bad > max_bad:
                raise IngestError(f"{path}: more than {max_bad} bad rows")
            continue
        values.append(v)
        if y is not None:
            years.append(y)

    if bad:
        warnings.warn(f"{path}: skipped {bad} row(s) with missing or bad fields")
    if not values:
        raise IngestError(f"{path}: no usable rows")
    return MaximaSample(np.array(values), np.array(years) if years else None)
