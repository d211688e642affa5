"""Seeded input generation for the benchmark workloads.

Inputs are drawn with numpy alone (inverse-CDF GEV sampling), so they do not
change when the package's own sampler changes, and written as the text
tables a user would feed to ``blockmax``.  The same seed gives byte-identical
files.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

START_YEAR = 1881

def gev_values(rng, mu, sigma, xi, n):
    """n GEV(mu, sigma, xi) draws; uniforms lie strictly inside (0, 1)."""
    u = rng.integers(1, 2**53, size=n) / 2.0**53
    y = -np.log(u)
    if xi == 0.0:
        return mu - sigma * np.log(y)
    return mu + sigma * np.expm1(-xi * np.log(y)) / xi


def write_table(path: Path, values, csv=False):
    sep = "," if csv else " "
    lines = [f"Year{sep}data"]
    lines += [f"{START_YEAR + i}{sep}{v:.10g}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")


def make_series(directory: Path, seed: int, n: int, mu: float, sigma: float, xi: float):
    """One annual-maxima table, ``series.txt``; returns its path list."""
    rng = np.random.Generator(np.random.PCG64(seed))
    path = directory / "series.txt"
    write_table(path, gev_values(rng, mu, sigma, xi, n))
    return [path]


def make_stations(directory: Path, seed: int, count: int):
    """``count`` station tables: n ~ U{20..150}, xi ~ U(-0.45, 0.45).

    Location and scale vary too (mu ~ U(20, 200), sigma ~ U(2, 40)) so the
    screen covers the spread of units a rainfall network has.  Every other
    file is comma-separated, so format detection is exercised.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    paths = []
    for k in range(count):
        n = int(rng.integers(20, 151))
        xi = float(rng.uniform(-0.45, 0.45))
        mu = float(rng.uniform(20.0, 200.0))
        sigma = float(rng.uniform(2.0, 40.0))
        csv = k % 2 == 1
        path = directory / f"station_{k:03d}.{'csv' if csv else 'txt'}"
        write_table(path, gev_values(rng, mu, sigma, xi, n), csv=csv)
        paths.append(path)
    return paths


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()

