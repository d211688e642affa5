"""Profile curves against golden bits written by the array-based search.

``tests/data/profiles.json`` holds, for each case below, the grid, the
profile log-likelihood and the deviance interval as ``float.hex`` strings.
They were first written by the numpy-array Nelder-Mead and kernels that
``tests/frozen_scalar_search.py`` keeps, which the plain-float search and
the in-place kernels reproduce bit for bit, and rewritten when the observed
information, whose standard errors set the default grids, became closed
form (the explicit-grid case did not move), again when the grid points
became Newton solves of the restricted problem, again when they became
lanes of one lockstep solve, again when the fits and the grid points
moved to the standardized sample, and again when the points of a profile of
xi at -1 < xi <= -0.5 became Newton points (one lp of ``bounded_xi`` moved
by one ulp), and again when the return level's gradient, whose standard
error sets the default grid of a level profile, came from the series of
``returns.level_location_shape`` (only ``level100`` moved).  Regenerate (only on purpose) with

    PYTHONPATH=src python tests/test_golden_profiles.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import blockmax as bm
from blockmax.inference import fit_gev, fit_gumbel, profile

DATA = Path(__file__).parent / "data" / "profiles.json"

SAMPLES = {
    "gev_xi0.1_n129": (bm.GevParams(79.0, 21.0, 0.1), 129, 1),
    "gev_xi0.3_n40": (bm.GevParams(0.0, 1.0, 0.3), 40, 10),
    "gev_xi-0.3_n129": (bm.GevParams(79.0, 21.0, -0.3), 129, 3),
}

# name -> (sample, model, profile keyword arguments)
CASES = {
    "xi": ("gev_xi0.1_n129", "gev", dict(which="xi")),
    "level10": ("gev_xi0.1_n129", "gev", dict(which="return_level", p=0.1)),
    "level100": ("gev_xi0.1_n129", "gev", dict(which="return_level", p=0.01)),
    "xi_expanded": ("gev_xi0.1_n129", "gev", dict(which="xi", tau=1e-5)),
    "xi_grid": ("gev_xi0.1_n129", "gev", dict(which="xi", grid=np.linspace(-0.2, 0.45, 27))),
    "gumbel_level100": ("gev_xi0.1_n129", "gumbel", dict(which="return_level", p=0.01)),
    "gumbel_mu": ("gev_xi0.1_n129", "gumbel", dict(which="mu")),
    "gumbel_sigma": ("gev_xi0.1_n129", "gumbel", dict(which="sigma")),
    "heavy_xi": ("gev_xi0.3_n40", "gev", dict(which="xi")),
    "bounded_xi": ("gev_xi-0.3_n129", "gev", dict(which="xi")),
    "bounded_mu": ("gev_xi-0.3_n129", "gev", dict(which="mu")),
    "bounded_sigma": ("gev_xi-0.3_n129", "gev", dict(which="sigma")),
    "bounded_level10": ("gev_xi-0.3_n129", "gev", dict(which="return_level", p=0.1)),
}


def _hex(a):
    return [float(v).hex() for v in np.ravel(a)]


def compute(name):
    sample_name, model, kwargs = CASES[name]
    params, n, seed = SAMPLES[sample_name]
    values = bm.sample(params, n, seed=seed).values
    fit = fit_gev(values) if model == "gev" else fit_gumbel(values)
    curve = profile(values, model, fit=fit, **kwargs)
    return {"grid": _hex(curve.grid), "lp": _hex(curve.lp), "ci": _hex(curve.ci)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_profile_bits_match_golden(golden, name):
    assert compute(name) == golden[name]


def test_heavy_tailed_level_leaves_its_upper_bound_unbracketed():
    # Each widening leg continues from the optimum at the edge it extends, so
    # the 100-block level of this sample keeps a deviance of about 3.76 at the
    # last grid point (near 652), below the 3.84 cutoff: no upper bound.
    params, n, seed = SAMPLES["gev_xi0.3_n40"]
    values = bm.sample(params, n, seed=seed).values
    with pytest.raises(bm.inference.ProfileBracketError) as caught:
        profile(values, "gev", which="return_level", p=0.01, fit=fit_gev(values))
    assert caught.value.side == "upper"


def test_expansion_case_widens_its_grid(golden):
    # tau=1e-5 needs a wider grid than the default +-4 se, 101 points
    assert len(golden["xi_expanded"]["grid"]) > len(golden["xi"]["grid"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DATA.write_text(json.dumps({name: compute(name) for name in sorted(CASES)}, indent=1) + "\n")
    print(f"wrote {DATA}")
