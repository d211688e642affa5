"""What the benchmark under ``perfbench/`` reads of the kernel module.

``perfbench/run.py`` reports ``blockmax.KERNEL_BACKEND`` and times every
entry of ``_core.BACKENDS``; ``perfbench/tracing.py`` counts kernel calls by
putting a wrapper in place of ``_core.gev_nllh`` and ``_core.gumbel_nllh``.
"""

import blockmax as bm
from blockmax import _core
from blockmax._core import _kernels_py

SAMPLE = bm.sample(bm.GevParams(79.0, 21.0, 0.1), 129, seed=1).values


def test_the_numpy_kernels_are_the_one_backend():
    assert bm.KERNEL_BACKEND == _core.BACKEND == "python"
    assert _core.BACKENDS == {"python": _kernels_py}


def test_a_wrapped_scalar_kernel_sees_every_fit_evaluation(monkeypatch):
    for name, fit in (("gev_nllh", bm.fit_gev), ("gumbel_nllh", bm.fit_gumbel)):
        calls = []
        kernel = getattr(_core, name)

        def spy(*args, kernel=kernel, calls=calls):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(_core, name, spy)
        result = fit(SAMPLE, compute_se=False)
        assert len(calls) == result.opt.evaluations > 0, name
