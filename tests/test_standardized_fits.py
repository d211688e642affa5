"""Full fits on the standardized sample: the units and the offset of the data.

``fit_gev``/``fit_gumbel`` take Newton steps on z = (x - median)/MAD from
the PWM (GEV) or moment (Gumbel) start, and profiles solve on the same z.
Here: tie-dominated and far-offset samples that the fits on the raw scale
got wrong, the estimate, its standard errors and the profile intervals
equivariant under a + b*x as a Hypothesis property, and the three-parameter
eigenvalue-floored Newton step.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blockmax as bm
from blockmax import inference
from blockmax.inference import DegenerateSampleError, Regularity, fit_gev, fit_gumbel, profile

TIED = np.r_[np.full(29, 5.0), 5.5]


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e6])
def test_a_tie_dominated_sample_fails_alike_at_every_offset(offset):
    # the GEV likelihood grows without bound as sigma -> 0 at the tie
    with pytest.raises(DegenerateSampleError, match="collapsed"):
        fit_gev(offset + 1e-3 * TIED)
    assert fit_gumbel(offset + 1e-3 * TIED, compute_se=False).params.sigma > 0.0


@pytest.mark.parametrize("offset", [1e8, 1e9, 1e10])
def test_far_offset_samples_fit(offset):
    for seed in range(20):
        x = bm.sample(bm.GevParams(79.0, 21.0, 0.1), 129, seed=seed).values
        for fit in (fit_gev, fit_gumbel):
            shifted = fit(offset + x)
            assert shifted.se is not None
            assert abs(shifted.params.xi - fit(x).params.xi) <= 1e-5


def _mapped(theta, a, b):
    out = theta.copy()
    out[0] = a + b * out[0]
    out[1] = b * out[1]
    return out


# The simplex search, which fits the nonregular shapes and solves the profile
# points that fall back, is exact only to its stopping rule (x_tol 1e-8 on
# the standardized sample): so far, in standard errors or interval widths.
SIMPLEX = 1e-6


def _fell_back(curve):
    return any(count for cause, count in curve.counts.items()
               if cause not in ("newton", "steps", "waves"))


@settings(max_examples=20, deadline=None)
@given(
    a=st.one_of(st.just(0.0), st.floats(-1e10, 1e10)),
    log_b=st.floats(-3.0, 3.0),
    xi=st.floats(-0.3, 0.4),
    n=st.integers(30, 150),
    seed=st.integers(0, 2**16),
)
@example(a=1e10, log_b=-3.0, xi=0.1, n=60, seed=3)
@example(a=-1e10, log_b=3.0, xi=-0.2, n=129, seed=1)
@example(a=0.0, log_b=1.0, xi=-0.0625, n=30, seed=29)
@example(a=4101.849, log_b=2.5037, xi=-0.272, n=116, seed=34641)  # a simplex fit Newton finishes
@example(a=-70984.544, log_b=0.741, xi=-0.197, n=40, seed=52567)  # a nonregular fit
@example(a=-0.4032, log_b=-0.795, xi=0.0453, n=115, seed=1671)  # xi near 0
def test_estimates_and_intervals_are_equivariant(a, log_b, xi, n, seed):
    b = 10.0**log_b
    y = a + b * bm.sample(bm.GevParams(79.0, 21.0, xi), n, seed=seed).values
    # the sample y stands for, so that the rounding of y itself is not in the comparison
    x = (y - a) / b
    # the resolution of y: its rounding in units of the sample's spread, as
    # far as the inverse information carries it, plus what the closed-form
    # derivatives lose near xi = 0 to their 1/xi**k terms (up to 4e-12 of the
    # se of xi in 1200 draws)
    rho = max(np.spacing(np.abs(y).max()) / (b * x.std()), np.finfo(float).eps)
    tolerance = 1e3 * rho + 1e-10
    for fit in (fit_gev, fit_gumbel):
        fx, fy = fit(x), fit(y)
        if Regularity.UNOBTAINABLE in (fx.regularity, fy.regularity):
            continue  # xi <= -1: the likelihood has no maximum (Smith 1985)
        bound = tolerance if fx.regularity == fy.regularity == Regularity.REGULAR else SIMPLEX
        scale = np.array([b, b, 1.0])[: fx.theta.size]
        assert np.all(np.abs(fy.theta - _mapped(fx.theta, a, b)) <= bound * fy.se)
        assert np.all(np.abs(fy.se - scale * fx.se) <= bound * fy.se)
    for which, p, to_y in (("xi", None, lambda v: v), ("return_level", 0.01, lambda v: a + b * v)):
        try:
            cx = profile(x, "gev", which, p=p, fit=fit_gev(x))
        except bm.ProfileBracketError as error:
            with pytest.raises(bm.ProfileBracketError, match=error.side):
                profile(y, "gev", which, p=p, fit=fit_gev(y))
            continue
        cy = profile(y, "gev", which, p=p, fit=fit_gev(y))
        # an interval of xi that would reach shapes without a maximum raises on both copies
        assert which != "xi" or min(cx.ci[0], cy.ci[0]) > -1.0
        bound = SIMPLEX if _fell_back(cx) or _fell_back(cy) else tolerance
        width = cy.ci[1] - cy.ci[0]
        assert max(abs(cy.ci[0] - to_y(cx.ci[0])), abs(cy.ci[1] - to_y(cx.ci[1]))) <= bound * width


@pytest.mark.parametrize("seed", range(4))
def test_three_parameter_modified_direction_is_newton_on_the_absolute_eigenvalues(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(60, 3, 3)) * rng.lognormal(0.0, 3.0, size=(60, 1, 1))
    H = A + A.transpose(0, 2, 1)
    H[:20] = A[:20] @ A[:20].transpose(0, 2, 1)  # positive definite
    g = rng.normal(size=(60, 3))
    H[5, 1, 1] = np.nan  # a lane outside the support
    step, decrement = inference._modified_direction(g, H)
    assert np.isnan(step[5]).all() and np.isnan(decrement[5])
    keep = np.arange(60) != 5
    step, decrement, g, H = step[keep], decrement[keep], g[keep], H[keep]
    w, V = np.linalg.eigh(H)
    m = np.maximum(np.abs(w), inference.EIGEN_FLOOR * np.abs(w).max(axis=1, keepdims=True))
    expected = -np.einsum("lij,lj->li", V @ (V.transpose(0, 2, 1) / m[:, :, None]), g)
    scale = np.abs(expected).max(axis=1, keepdims=True)
    assert np.all(np.abs(step - expected) <= 1e-9 * scale)
    np.testing.assert_allclose(decrement, -np.einsum("li,li->l", g, expected), rtol=1e-9)
    assert np.all(np.einsum("li,li->l", g, step) < 0.0)  # a descent direction
    newton, newton_decrement, definite = inference._newton_direction(g, H)
    assert definite[:19].all() and not definite.all()
    assert np.all(np.abs(step - newton)[definite] <= 1e-9 * scale[definite])
    # each lane is its own one-lane call, bit for bit
    one = inference._modified_direction(g[7:8].copy(), H[7:8].copy())
    assert one[0].tobytes() == step[7:8].tobytes() and one[1].tobytes() == decrement[7:8].tobytes()
