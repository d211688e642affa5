import numpy as np
import pytest

import blockmax as bm
from blockmax import _fork


@pytest.fixture(autouse=True)
def _fresh_workers():
    """End the resampling workers after each test, so that a test that patches
    module state gets a worker forked after its patches."""
    yield
    _fork.close()


@pytest.fixture(scope="session")
def std_gumbel_2k():
    return bm.sample(bm.GevParams(0.0, 1.0, 0.0), 2000, seed=42)


@pytest.fixture(scope="session")
def gev_2k():
    return bm.sample(bm.GevParams(79.25, 22.12, -0.045), 2000, seed=7)


@pytest.fixture(scope="session")
def gumbel_10k():
    return bm.sample(bm.GevParams(0.0, 1.0, 0.0), 10_000, seed=11)


def central_gradient(f, x, h=1e-6):
    """Two-sided finite-difference gradient with per-coordinate steps."""
    x = np.asarray(x, dtype=float)
    g = np.empty(x.size)
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        e = np.zeros(x.size)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g
