"""The likelihood kernels, in numpy (:mod:`._kernels_py`).

Callers look the scalar kernels up as module attributes at call time
(``_core.gev_nllh``), so a wrapper put in their place, such as a tracer,
sees every call.  ``BACKENDS`` and ``BACKEND`` name the one implementation.

The row kernels (``gev_nllh_rows``, ``gumbel_nllh_rows``) evaluate one
parameter point per row of a sample matrix, and the derivative row kernels
add the score and the observed information (``gumbel_derivatives_rows``) or
the sums they come from (``gev_derivative_sums``, with ``gev_series_sums``
for the lanes near xi = 0 and ``score_info``).  Each call is one block of
rows; :mod:`blockmax.likelihood` runs them over a whole pass of lanes.
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
gev_derivative_sums = _kernels_py.gev_derivative_sums
gev_series_sums = _kernels_py.gev_series_sums
score_info = _kernels_py.score_info
