"""Derivative-free Nelder-Mead simplex minimizer.

The one search of the package: it takes over every full-sample fit, and
so every refit, and every profile grid point whose Newton solve falls back
(see :mod:`blockmax.inference` and :mod:`blockmax.profiles`).
The objective must return finite values everywhere (invalid regions are
expected to be penalized upstream, see the likelihood kernels).

:func:`minimize` keeps its simplex of 2 to 4 vertices as lists of Python
floats: at that size numpy's per-call overhead costs more than the
arithmetic.  It performs the float64 operations of the array formulation in
the same order, so its results are those of that formulation bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = ["OptResult", "SimplexConfig", "minimize"]


@dataclass(frozen=True)
class SimplexConfig:
    """Move coefficients and stopping rules.

    Convergence is declared when the value spread across the simplex,
    relative to the larger vertex magnitude (floored at 1e-12), drops to
    ``f_tol`` and the simplex diameter around the best vertex drops to
    ``x_tol``.  Both are required: a value-only rule stops early whenever two
    vertices tie (frequent on piecewise-linear objectives), a diameter-only
    rule stalls on flat valleys.
    """

    reflection: float = 1.0
    expansion: float = 2.0
    contraction: float = 0.5
    shrink: float = 0.5
    max_iter: int = 5000
    f_tol: float = 1e-10
    x_tol: float = 1e-8

    def __post_init__(self):
        for name in ("reflection", "expansion", "contraction", "shrink"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not self.expansion > 1.0 > self.contraction > 0.0:
            raise ValueError("need expansion > 1 > contraction > 0")


@dataclass(frozen=True)
class OptResult:
    x_min: np.ndarray
    f_min: float
    iterations: int
    converged: bool
    restarts: int
    evaluations: int = 0  # objective calls


def _initial_simplex(x0) -> list[list[float]]:
    # x0 plus one vertex per axis, perturbed by a scale-aware step
    x0 = list(x0)
    verts = [x0[:] for _ in range(len(x0) + 1)]
    for i, v in enumerate(x0):
        verts[i + 1][i] += max(0.05 * abs(v), 0.00025)
    return verts


def _stable_order(fvals) -> list[int]:
    # argsort(kind="stable"): ascending, ties in index order, NaN last
    return sorted(range(len(fvals)), key=lambda i: (fvals[i] != fvals[i], fvals[i]))


def _converged(fvals, verts, cfg) -> bool:
    f_best, f_worst = fvals[0], fvals[-1]
    denom = max(abs(f_best), abs(f_worst), 1e-12)
    if not (f_worst - f_best) <= cfg.f_tol * denom:
        return False
    # max |v - v0| <= x_tol, with NaN failing as it does in np.max
    best, x_tol = verts[0], cfg.x_tol
    return all(abs(a - b) <= x_tol for v in verts[1:] for a, b in zip(v, best))


def minimize(objective, x0, config: SimplexConfig | None = None,
             initial_simplex: np.ndarray | None = None, callback=None) -> OptResult:
    """Minimize ``objective`` from ``x0`` with the Nelder-Mead simplex.

    Deterministic for fixed inputs: vertex ordering breaks ties by insertion
    order (stable sort).  If the first pass exhausts ``max_iter`` without
    converging, one automatic restart is taken from the incumbent best point.
    ``callback(iteration, best_x, best_f)``, when given, is invoked once per
    iteration.  ``objective`` gets a fresh float64 array at every call; the
    value at ``x0`` serves both the finiteness check and the default simplex.
    """
    cfg = config or SimplexConfig()
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim != 1 or x0.size < 1:
        raise ValueError("x0 must be a 1-D point")
    f0 = float(objective(x0))
    if not math.isfinite(f0):
        raise ValueError(f"objective is not finite at x0: {f0!r}")

    if initial_simplex is not None:
        verts = np.array(initial_simplex, dtype=float)
        if verts.shape != (x0.size + 1, x0.size):
            raise ValueError("initial simplex must have shape (d+1, d)")
        verts = verts.tolist()
        f_first = None
    else:
        verts = _initial_simplex(x0.tolist())
        f_first = f0  # its vertex 0 is x0

    total_iters = 0
    evaluations = 1
    restarts = 0
    while True:
        verts, fvals, converged, iters, evals = _run(objective, verts, cfg, callback, total_iters,
                                                     f_first)
        f_first = None
        total_iters += iters
        evaluations += evals
        if converged or restarts >= 1:
            return OptResult(
                x_min=np.array(verts[0]),
                f_min=fvals[0],
                iterations=total_iters,
                converged=converged,
                restarts=restarts,
                evaluations=evaluations,
            )
        restarts += 1
        verts = _initial_simplex(verts[0])


def _run(objective, verts, cfg, callback, iter_offset, f_first=None):
    """One Nelder-Mead pass on a simplex held as lists of floats.

    Every step is the float64 arithmetic of the array formulation, in the
    same order: the centroid sums vertices 0..d-1 in turn and divides by d
    (as ``mean(axis=0)`` does), the moves are elementwise, and the vertices
    are kept in ``argsort(kind="stable")`` order, NaN last.  Between
    iterations only the worst vertex changes unless the simplex shrinks, so
    it is put back in place by bisection.  ``f_first``, when given, is the
    objective at vertex 0, which is then not evaluated again.  Returns
    ``(verts, fvals, converged, iterations, evaluations)``.
    """
    alpha, gamma, beta, delta = cfg.reflection, cfg.expansion, cfg.contraction, cfg.shrink
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return float(objective(np.array(x)))

    d = len(verts) - 1
    fvals = [f(v) for v in verts] if f_first is None else [f_first] + [f(v) for v in verts[1:]]
    resort = True

    for it in range(cfg.max_iter):
        # vertices 0..d-1 are still in order unless the simplex shrank; a NaN
        # among them sits at d-1, and bisection cannot pass it
        if resort or fvals[d - 1] != fvals[d - 1]:
            order = _stable_order(fvals)
            verts = [verts[i] for i in order]
            fvals = [fvals[i] for i in order]
            resort = False
        else:  # insert the new last vertex after every value <= it; a NaN stays last
            k = bisect_right(fvals, fvals[-1], 0, d)
            if k < d:
                fvals.insert(k, fvals.pop())
                verts.insert(k, verts.pop())
        if callback is not None:
            callback(iter_offset + it, np.array(verts[0]), fvals[0])
        if _converged(fvals, verts, cfg):
            return verts, fvals, True, it + 1, evals

        centroid = verts[0]
        for v in verts[1:d]:
            centroid = [c + a for c, a in zip(centroid, v)]
        centroid = [c / d for c in centroid]
        worst = verts[-1]
        x_r = [c + alpha * (c - w) for c, w in zip(centroid, worst)]
        f_r = f(x_r)

        if f_r < fvals[0]:
            x_e = [c + gamma * (r - c) for c, r in zip(centroid, x_r)]
            f_e = f(x_e)
            if f_e < f_r:
                verts[-1], fvals[-1] = x_e, f_e
            else:
                verts[-1], fvals[-1] = x_r, f_r
        elif f_r < fvals[-2]:
            verts[-1], fvals[-1] = x_r, f_r
        else:
            if f_r < fvals[-1]:  # outside contraction
                x_c = [c + beta * (r - c) for c, r in zip(centroid, x_r)]
                f_c = f(x_c)
                accept = f_c <= f_r
            else:  # inside contraction
                x_c = [c + beta * (w - c) for c, w in zip(centroid, worst)]
                f_c = f(x_c)
                accept = f_c < fvals[-1]
            if accept:
                verts[-1], fvals[-1] = x_c, f_c
            else:  # shrink toward the best vertex
                best = verts[0]
                for i in range(1, d + 1):
                    verts[i] = [b + delta * (v - b) for b, v in zip(best, verts[i])]
                    fvals[i] = f(verts[i])
                resort = True

    order = _stable_order(fvals)
    return [verts[i] for i in order], [fvals[i] for i in order], False, cfg.max_iter, evals
