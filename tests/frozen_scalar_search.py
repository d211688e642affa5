"""Frozen array formulation of the scalar search, kept as a test oracle.

``minimize`` with ``_run`` on numpy arrays, and the scalar numpy kernels
``gev_nllh``/``gumbel_nllh``, exactly as they stood before the search moved
to plain floats and the kernels to in-place work.  The live code must give
the same bits; ``tests/test_scalar_search.py`` and
``benchmarks/bench_kernels.py`` compare against these.
"""

import math

import numpy as np

from blockmax.simplex import OptResult

PENALTY = 1e10
_OVERFLOW_EDGE = 690.0

# the search's own coefficients and stopping rules, as they stood
REFLECTION, EXPANSION, CONTRACTION, SHRINK = 1.0, 2.0, 0.5, 0.5
MAX_ITER = 5000
F_TOL = 1e-10
X_TOL = 1e-8


# -- search ---------------------------------------------------------------------


def _initial_simplex(x0):
    d = x0.size
    verts = np.tile(x0, (d + 1, 1))
    for i in range(d):
        verts[i + 1, i] += max(0.05 * abs(x0[i]), 0.00025)
    return verts


def _converged(fvals, verts):
    f_best, f_worst = fvals[0], fvals[-1]
    denom = max(abs(f_best), abs(f_worst), 1e-12)
    f_ok = (f_worst - f_best) <= F_TOL * denom
    x_ok = np.max(np.abs(verts - verts[0])) <= X_TOL
    return f_ok and x_ok


def minimize(objective, x0):
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim != 1 or x0.size < 1:
        raise ValueError("x0 must be a 1-D point")
    f0 = float(objective(x0))
    if not math.isfinite(f0):
        raise ValueError(f"objective is not finite at x0: {f0!r}")

    verts = _initial_simplex(x0)
    total_iters = 0
    restarts = 0
    while True:
        verts, fvals, converged, iters = _run(objective, verts)
        total_iters += iters
        if converged or restarts >= 1:
            return OptResult(
                x_min=verts[0].copy(),
                f_min=float(fvals[0]),
                iterations=total_iters,
                converged=converged,
                restarts=restarts,
            )
        restarts += 1
        verts = _initial_simplex(verts[0])


def _run(objective, verts):
    alpha, gamma, beta, delta = REFLECTION, EXPANSION, CONTRACTION, SHRINK
    fvals = np.array([float(objective(v)) for v in verts])

    for it in range(MAX_ITER):
        order = np.argsort(fvals, kind="stable")
        verts, fvals = verts[order], fvals[order]
        if _converged(fvals, verts):
            return verts, fvals, True, it + 1

        centroid = verts[:-1].mean(axis=0)
        worst = verts[-1]
        x_r = centroid + alpha * (centroid - worst)
        f_r = float(objective(x_r))

        if f_r < fvals[0]:
            x_e = centroid + gamma * (x_r - centroid)
            f_e = float(objective(x_e))
            if f_e < f_r:
                verts[-1], fvals[-1] = x_e, f_e
            else:
                verts[-1], fvals[-1] = x_r, f_r
        elif f_r < fvals[-2]:
            verts[-1], fvals[-1] = x_r, f_r
        else:
            if f_r < fvals[-1]:  # outside contraction
                x_c = centroid + beta * (x_r - centroid)
                f_c = float(objective(x_c))
                accept = f_c <= f_r
            else:  # inside contraction
                x_c = centroid + beta * (worst - centroid)
                f_c = float(objective(x_c))
                accept = f_c < fvals[-1]
            if accept:
                verts[-1], fvals[-1] = x_c, f_c
            else:  # shrink toward the best vertex
                for i in range(1, len(verts)):
                    verts[i] = verts[0] + delta * (verts[i] - verts[0])
                    fvals[i] = float(objective(verts[i]))

    order = np.argsort(fvals, kind="stable")
    return verts[order], fvals[order], False, MAX_ITER


# -- kernels --------------------------------------------------------------------


def gumbel_nllh(x, mu, sigma):
    if sigma <= 0.0:
        return PENALTY - sigma, False
    z = (x - mu) / sigma
    with np.errstate(over="ignore"):
        value = x.size * math.log(sigma) + float(z.sum()) + float(np.exp(-z).sum())
    if not math.isfinite(value):
        excess = float(np.clip(-z - _OVERFLOW_EDGE, 0.0, None).sum())
        return PENALTY + excess, False
    return value, True


def gev_nllh(x, mu, sigma, xi):
    if sigma <= 0.0:
        return PENALTY - sigma, False
    s = xi * (x - mu) / sigma
    t = 1.0 + s
    if np.any(t <= 0.0):
        violation = float(np.clip(-t, 0.0, None).sum())
        return PENALTY + violation, False
    log_t = np.log1p(s)
    e = -log_t / xi
    with np.errstate(over="ignore"):
        value = (
            x.size * math.log(sigma)
            + (1.0 + 1.0 / xi) * float(log_t.sum())
            + float(np.exp(e).sum())
        )
    if not math.isfinite(value):
        excess = float(np.clip(e - _OVERFLOW_EDGE, 0.0, None).sum())
        return PENALTY + excess, False
    return value, True
