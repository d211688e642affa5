import numpy as np
import pytest

from blockmax import OptResult, minimize, simplex


def bowl(x):
    return (x[0] - 3.0) ** 2 + (x[1] + 1.0) ** 2


def rosenbrock(x):
    return (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2


def test_quadratic_bowl():
    r = minimize(bowl, [0.0, 0.0])
    assert r.converged
    assert np.allclose(r.x_min, [3.0, -1.0], atol=1e-6)
    assert r.f_min == bowl(r.x_min)


def test_rosenbrock():
    r = minimize(rosenbrock, [-1.2, 1.0])
    assert r.converged and r.restarts == 0 and r.iterations <= simplex.MAX_ITER
    assert r.f_min < 1e-8
    assert np.allclose(r.x_min, [1.0, 1.0], atol=1e-3)


def test_one_dimensional_nonsmooth():
    r = minimize(lambda x: abs(x[0]), [5.0])
    assert abs(r.x_min[0]) <= 1e-6


def test_nonfinite_at_start_rejected():
    with pytest.raises(ValueError):
        minimize(lambda x: float("nan"), [1.0])
    with pytest.raises(ValueError):
        minimize(lambda x: float("inf"), [1.0])


def test_monotone_best_value(monkeypatch):
    # a pass cut after k iterations is the first k iterations of a longer
    # one, so its best vertex value never rises with k
    start = simplex._simplex_around([-1.2, 1.0])
    best = []
    for k in range(1, 200):
        monkeypatch.setattr(simplex, "MAX_ITER", k)
        _, fvals, converged, iterations, _ = simplex._run(rosenbrock, [v[:] for v in start])
        assert iterations == k or converged and iterations < k
        best.append(fvals[0])
    assert all(b <= a for a, b in zip(best, best[1:]))
    assert best[-1] < best[0]


def test_bad_start_shape_rejected():
    with pytest.raises(ValueError, match="1-D point"):
        minimize(bowl, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="1-D point"):
        minimize(bowl, [])


def test_initial_vertex_permutation_invariance():
    base = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
    results = [
        simplex._run(bowl, base[perm].tolist())
        for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0])
    ]
    assert all(converged for _, _, converged, _, _ in results)
    f_mins = [fvals[0] for _, fvals, _, _, _ in results]
    assert max(f_mins) - min(f_mins) <= simplex.F_TOL


def test_translation_equivariance():
    c = np.array([10.0, -20.0])
    r0 = minimize(bowl, [0.5, 0.5])
    r1 = minimize(lambda x: bowl(x - c), np.array([0.5, 0.5]) + c)
    assert np.allclose(r1.x_min - c, r0.x_min, atol=1e-6)


def test_restart_recorded_on_hard_budget(monkeypatch):
    monkeypatch.setattr(simplex, "MAX_ITER", 40)
    r = minimize(rosenbrock, [-1.2, 1.0])
    assert isinstance(r, OptResult)
    assert r.restarts == 1
    assert r.iterations <= 80


def test_determinism():
    a = minimize(rosenbrock, [-1.2, 1.0])
    b = minimize(rosenbrock, [-1.2, 1.0])
    assert np.array_equal(a.x_min, b.x_min) and a.iterations == b.iterations
