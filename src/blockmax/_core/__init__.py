"""The likelihood kernels, in numpy (:mod:`._kernels_py`).

Callers look the scalar kernels up as module attributes at call time
(``_core.gev_nllh``), so a wrapper put in their place, such as a tracer,
sees every call.  ``BACKENDS`` and ``BACKEND`` name the one implementation.

The row kernels (``gev_nllh_rows``, ``gumbel_nllh_rows``) evaluate one
parameter point per row of a sample matrix, and the derivative row kernels
(``gev_derivatives_rows``, ``gumbel_derivatives_rows``) add the score and
the observed information.
"""

from . import _kernels_py

BACKENDS = {"python": _kernels_py}
BACKEND = "python"

PENALTY = _kernels_py.PENALTY
gumbel_nllh = _kernels_py.gumbel_nllh
gev_nllh = _kernels_py.gev_nllh
gumbel_nllh_rows = _kernels_py.gumbel_nllh_rows
gev_nllh_rows = _kernels_py.gev_nllh_rows
gumbel_derivatives_rows = _kernels_py.gumbel_derivatives_rows
gev_derivatives_rows = _kernels_py.gev_derivatives_rows
