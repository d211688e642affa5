"""Derivative-free Nelder-Mead simplex minimizer.

Used for every likelihood and profile-likelihood maximization in the package.
The objective must return finite values everywhere (invalid regions are
expected to be penalized upstream, see the likelihood kernels).

:func:`minimize` keeps its simplex of 2 to 4 vertices as lists of Python
floats: at that size numpy's per-call overhead costs more than the
arithmetic.  It performs the float64 operations of the array formulation in
the same order, so its results are those of that formulation bit for bit.

:func:`minimize_rows` runs many independent searches in lockstep, one per
lane, so that each objective call evaluates a block of lanes at once.  Every
lane takes exactly the decisions :func:`minimize` takes for it alone.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = ["OptResult", "OptRows", "SimplexConfig", "minimize", "minimize_rows"]


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


@dataclass(frozen=True)
class OptRows:
    """Per-lane :class:`OptResult` fields of :func:`minimize_rows`, as arrays."""

    x_min: np.ndarray  # (lanes, d)
    f_min: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    restarts: np.ndarray
    # objective evaluations per lane, as minimize counts them
    evaluations: np.ndarray | int = 0


def _initial_simplex_rows(x0: np.ndarray) -> np.ndarray:
    # row-wise _initial_simplex: (lanes, d) -> (lanes, d+1, d)
    d = x0.shape[1]
    verts = np.repeat(x0[:, None, :], d + 1, axis=1)
    for i in range(d):
        verts[:, i + 1, i] += np.maximum(0.05 * np.abs(x0[:, i]), 0.00025)
    return verts


def _vertex_values(objective_rows, lanes, verts) -> np.ndarray:
    # one objective call per vertex keeps each call at (lanes, n) elements
    return np.stack([np.asarray(objective_rows(lanes, verts[:, j]), dtype=float)
                     for j in range(verts.shape[1])], axis=1)


def _sorted_rows(verts, fvals):
    order = np.argsort(fvals, axis=1, kind="stable")
    rows = np.arange(order.shape[0])[:, None]
    return verts[rows, order], fvals[rows, order]


def _converged_rows(fvals, verts, cfg) -> np.ndarray:
    f_best, f_worst = fvals[:, 0], fvals[:, -1]
    denom = np.maximum(np.maximum(np.abs(f_best), np.abs(f_worst)), 1e-12)
    f_ok = (f_worst - f_best) <= cfg.f_tol * denom
    x_ok = np.abs(verts - verts[:, :1]).max(axis=(1, 2)) <= cfg.x_tol
    return f_ok & x_ok


def minimize_rows(objective_rows, X0, config: SimplexConfig | None = None) -> OptRows:
    """Run one Nelder-Mead search per row of ``X0``, all in lockstep.

    ``objective_rows(lanes, points)`` returns, for each k, the objective of
    lane ``lanes[k]`` at ``points[k]`` (``lanes`` indexes the rows of ``X0``).
    Each lane follows :func:`minimize` exactly: the same stable vertex order,
    moves, stopping rule, iteration count and single restart, so lane r of
    the result equals ``minimize`` on lane r's objective from ``X0[r]``.  A
    lane leaves the active set once it has finished.
    """
    cfg = config or SimplexConfig()
    x0 = np.asarray(X0, dtype=float)
    if x0.ndim != 2 or x0.shape[1] < 1:
        raise ValueError("X0 must be a (lanes, d) array of start points")
    if cfg.max_iter < 1:
        raise ValueError("minimize_rows needs max_iter >= 1")
    n_lanes, d = x0.shape
    alpha, gamma, beta, delta = cfg.reflection, cfg.expansion, cfg.contraction, cfg.shrink
    out = OptRows(
        x_min=np.empty((n_lanes, d)),
        f_min=np.empty(n_lanes),
        iterations=np.zeros(n_lanes, dtype=int),
        converged=np.zeros(n_lanes, dtype=bool),
        restarts=np.zeros(n_lanes, dtype=int),
        evaluations=np.zeros(n_lanes, dtype=int),
    )

    # state of the active lanes; lanes[k] names the lane in row k
    lanes = np.arange(n_lanes)
    verts = _initial_simplex_rows(x0)
    fvals = _vertex_values(objective_rows, lanes, verts)
    if not np.all(np.isfinite(fvals[:, 0])):
        bad = int(np.flatnonzero(~np.isfinite(fvals[:, 0]))[0])
        raise ValueError(f"objective is not finite at x0 of lane {bad}: {fvals[bad, 0]!r}")
    it = np.zeros(n_lanes, dtype=int)  # iterations of the current pass
    before = np.zeros(n_lanes, dtype=int)  # iterations of the earlier pass
    restarts = np.zeros(n_lanes, dtype=int)
    evals = np.full(n_lanes, d + 1)

    def finish(mask, iterations, converged):
        nonlocal lanes, verts, fvals, it, before, restarts, evals
        done = lanes[mask]
        out.x_min[done] = verts[mask, 0]
        out.f_min[done] = fvals[mask, 0]
        out.iterations[done] = iterations[mask]
        out.converged[done] = converged
        out.restarts[done] = restarts[mask]
        out.evaluations[done] = evals[mask]
        keep = ~mask
        lanes, verts, fvals, it, before, restarts, evals = (
            a[keep] for a in (lanes, verts, fvals, it, before, restarts, evals)
        )

    while lanes.size:
        spent = it == cfg.max_iter
        if spent.any():  # end of a pass: restart once from the best vertex, then stop
            verts[spent], fvals[spent] = _sorted_rows(verts[spent], fvals[spent])
            again = spent & (restarts == 0)
            if again.any():
                before[again] += cfg.max_iter
                restarts[again] += 1
                it[again] = 0
                verts[again] = _initial_simplex_rows(verts[again, 0])
                fvals[again] = _vertex_values(objective_rows, lanes[again], verts[again])
                evals[again] += d + 1
            final = spent & ~again
            if final.any():
                finish(final, before + it, False)
                if not lanes.size:
                    break

        verts, fvals = _sorted_rows(verts, fvals)
        converged = _converged_rows(fvals, verts, cfg)
        if converged.any():
            finish(converged, before + it + 1, True)
            if not lanes.size:
                break

        centroid = verts[:, :-1].mean(axis=1)
        worst = verts[:, -1]
        x_r = centroid + alpha * (centroid - worst)
        f_r = np.asarray(objective_rows(lanes, x_r), dtype=float)

        expand = f_r < fvals[:, 0]
        reflect = ~expand & (f_r < fvals[:, -2])
        outside = ~expand & ~reflect & (f_r < fvals[:, -1])
        inside = ~(expand | reflect | outside)

        # second trial point: expansion, outside or inside contraction
        probe = ~reflect
        x_2 = np.where(
            expand[:, None], centroid + gamma * (x_r - centroid),
            np.where(outside[:, None], centroid + beta * (x_r - centroid),
                     centroid + beta * (worst - centroid)),
        )
        f_2 = np.full(lanes.size, np.inf)
        if probe.any():
            f_2[probe] = objective_rows(lanes[probe], x_2[probe])
        evals += 1 + probe

        take_2 = (expand & (f_2 < f_r)) | (outside & (f_2 <= f_r)) | (inside & (f_2 < fvals[:, -1]))
        take_r = reflect | (expand & ~take_2)
        verts[take_r, -1], fvals[take_r, -1] = x_r[take_r], f_r[take_r]
        verts[take_2, -1], fvals[take_2, -1] = x_2[take_2], f_2[take_2]

        shrink = (outside | inside) & ~take_2
        if shrink.any():  # toward the best vertex
            best = verts[shrink, :1]
            verts[shrink, 1:] = best + delta * (verts[shrink, 1:] - best)
            fvals[shrink, 1:] = _vertex_values(objective_rows, lanes[shrink], verts[shrink, 1:])
            evals[shrink] += d
        it += 1

    return out
