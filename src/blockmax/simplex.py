"""Derivative-free Nelder-Mead simplex minimizer.

Used for every likelihood and profile-likelihood maximization in the package.
The objective must return finite values everywhere (invalid regions are
expected to be penalized upstream, see the likelihood kernels).

:func:`minimize_rows` runs many independent searches in lockstep, one per
lane, so that each objective call evaluates a block of lanes at once.  Every
lane takes exactly the decisions :func:`minimize` takes for it alone.
"""

from __future__ import annotations

import math
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


def _initial_simplex(x0: np.ndarray) -> np.ndarray:
    # x0 plus one vertex per axis, perturbed by a scale-aware step
    d = x0.size
    verts = np.tile(x0, (d + 1, 1))
    for i in range(d):
        verts[i + 1, i] += max(0.05 * abs(x0[i]), 0.00025)
    return verts


def _converged(fvals, verts, cfg) -> bool:
    f_best, f_worst = fvals[0], fvals[-1]
    denom = max(abs(f_best), abs(f_worst), 1e-12)
    f_ok = (f_worst - f_best) <= cfg.f_tol * denom
    x_ok = np.max(np.abs(verts - verts[0])) <= cfg.x_tol
    return f_ok and x_ok


def minimize(objective, x0, config: SimplexConfig | None = None,
             initial_simplex: np.ndarray | None = None, callback=None) -> OptResult:
    """Minimize ``objective`` from ``x0`` with the Nelder-Mead simplex.

    Deterministic for fixed inputs: vertex ordering breaks ties by insertion
    order (stable sort).  If the first pass exhausts ``max_iter`` without
    converging, one automatic restart is taken from the incumbent best point.
    ``callback(iteration, best_x, best_f)``, when given, is invoked once per
    iteration.
    """
    cfg = config or SimplexConfig()
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim != 1 or x0.size < 1:
        raise ValueError("x0 must be a 1-D point")
    f0 = float(objective(x0))
    if not math.isfinite(f0):
        raise ValueError(f"objective is not finite at x0: {f0!r}")

    verts = np.array(initial_simplex, dtype=float) if initial_simplex is not None \
        else _initial_simplex(x0)
    if verts.shape != (x0.size + 1, x0.size):
        raise ValueError("initial simplex must have shape (d+1, d)")

    total_iters = 0
    restarts = 0
    while True:
        verts, fvals, converged, iters = _run(objective, verts, cfg, callback, total_iters)
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


def _run(objective, verts, cfg, callback, iter_offset):
    alpha, gamma, beta, delta = cfg.reflection, cfg.expansion, cfg.contraction, cfg.shrink
    fvals = np.array([float(objective(v)) for v in verts])

    for it in range(cfg.max_iter):
        order = np.argsort(fvals, kind="stable")
        verts, fvals = verts[order], fvals[order]
        if callback is not None:
            callback(iter_offset + it, verts[0], float(fvals[0]))
        if _converged(fvals, verts, cfg):
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
    return verts[order], fvals[order], False, cfg.max_iter


@dataclass(frozen=True)
class OptRows:
    """Per-lane :class:`OptResult` fields of :func:`minimize_rows`, as arrays."""

    x_min: np.ndarray  # (lanes, d)
    f_min: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    restarts: np.ndarray


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

    def finish(mask, iterations, converged):
        nonlocal lanes, verts, fvals, it, before, restarts
        done = lanes[mask]
        out.x_min[done] = verts[mask, 0]
        out.f_min[done] = fvals[mask, 0]
        out.iterations[done] = iterations[mask]
        out.converged[done] = converged
        out.restarts[done] = restarts[mask]
        keep = ~mask
        lanes, verts, fvals, it, before, restarts = (
            a[keep] for a in (lanes, verts, fvals, it, before, restarts)
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

        take_2 = (expand & (f_2 < f_r)) | (outside & (f_2 <= f_r)) | (inside & (f_2 < fvals[:, -1]))
        take_r = reflect | (expand & ~take_2)
        verts[take_r, -1], fvals[take_r, -1] = x_r[take_r], f_r[take_r]
        verts[take_2, -1], fvals[take_2, -1] = x_2[take_2], f_2[take_2]

        shrink = (outside | inside) & ~take_2
        if shrink.any():  # toward the best vertex
            best = verts[shrink, :1]
            verts[shrink, 1:] = best + delta * (verts[shrink, 1:] - best)
            fvals[shrink, 1:] = _vertex_values(objective_rows, lanes[shrink], verts[shrink, 1:])
        it += 1

    return out
