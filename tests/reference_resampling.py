"""The one-at-a-time resampling loop, kept as a test reference.

``bootstrap`` and ``jackknife`` here evaluate each replicate at once, on
the indices of its own ``resampling._draw`` stream, and redraw a failed
replicate at once with the next attempt: the rule that the batched rounds
of :mod:`blockmax.resampling` follow for every statistic.  A replicate
fails where the statistic raises, returns non-finite values or the wrong
number of them; ``failures`` counts it under the cause of its error.  The
reports must be those of ``blockmax.bootstrap`` and ``blockmax.jackknife``
bit for bit; the tests compare them.
"""

from collections import Counter

import numpy as np

from blockmax import resampling
from blockmax.data import as_values
from blockmax.resampling import ResamplingError, _cause, _draw, _evaluate


def bootstrap(sample, statistic, b=999, seed=0, labels=None):
    values = as_values(sample)
    estimate = _evaluate(statistic, values)
    replicates = np.empty((b, estimate.size))
    failures = Counter()
    failed = 0
    for i in range(b):
        attempt = 0
        while True:
            try:
                replicates[i] = _evaluate(statistic, values[_draw(seed, i, attempt, values.size)],
                                          estimate.size)
                break
            except Exception as exc:  # noqa: BLE001 - the rule under test: any error fails the replicate
                failed += 1
                failures[_cause(exc)] += 1
                if failed > 0.10 * b:
                    raise ResamplingError(f"{failed} of {b} bootstrap replicates failed (limit 10%)") from exc
                attempt += 1
    return resampling._bootstrap_report(labels, estimate, replicates, seed, failed, failures)


def jackknife(sample, statistic, labels=None):
    values = as_values(sample)
    estimate = _evaluate(statistic, values)
    loo = np.empty((values.size, estimate.size))
    for i in range(values.size):
        try:
            loo[i] = _evaluate(statistic, np.delete(values, i), estimate.size)
        except Exception as exc:  # noqa: BLE001 - as above
            raise ResamplingError(f"jackknife refit without observation {i} failed") from exc
    return resampling._jackknife_report(labels, estimate, loo)


def bootstrap_jackknife(sample, statistic, b=999, seed=0, labels=None):
    return bootstrap(sample, statistic, b, seed, labels), jackknife(sample, statistic, labels)
