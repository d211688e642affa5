"""Kernel backend selection.

The compiled extension is preferred when built; the numpy fallback is used
otherwise, or when BLOCKMAX_PURE_PYTHON=1.  Callers look the kernels up as
module attributes (``_core.gev_nllh``) so :func:`use_backend` can swap them,
which the benchmark and the backend-parity tests rely on.

The row kernels (``gev_nllh_rows``, ``gumbel_nllh_rows``) evaluate one
parameter point per row of a sample matrix for the batched replicate engine,
and the derivative row kernels (``gev_derivatives_rows``,
``gumbel_derivatives_rows``) add the score and the observed information.
They are numpy only and serve either backend.
"""

import os

from . import _kernels_py

try:
    from . import _kernels as _compiled
except ImportError:  # extension not built
    _compiled = None

BACKENDS = {"python": _kernels_py}
if _compiled is not None:
    BACKENDS["compiled"] = _compiled

PENALTY = _kernels_py.PENALTY
gumbel_nllh_rows = _kernels_py.gumbel_nllh_rows
gev_nllh_rows = _kernels_py.gev_nllh_rows
gumbel_derivatives_rows = _kernels_py.gumbel_derivatives_rows
gev_derivatives_rows = _kernels_py.gev_derivatives_rows

gumbel_nllh = None
gev_nllh = None
BACKEND = None


def use_backend(name):
    """Select the kernel implementation by name ('compiled' or 'python')."""
    global gumbel_nllh, gev_nllh, BACKEND
    impl = BACKENDS.get(name)
    if impl is None:
        raise ValueError(f"backend {name!r} not available (have {sorted(BACKENDS)})")
    gumbel_nllh = impl.gumbel_nllh
    gev_nllh = impl.gev_nllh
    BACKEND = name
    return name


if os.environ.get("BLOCKMAX_PURE_PYTHON") == "1" or _compiled is None:
    use_backend("python")
else:
    use_backend("compiled")
