"""Numpy implementations of the negative log-likelihood kernels.

Reference backend for the compiled extension in ``_kernels.pyx``; both share
the same contract:

* input ``x`` is a contiguous float64 array, ``(value, valid)`` comes back;
* ``sigma <= 0`` or a support violation yields ``(PENALTY + violation, False)``
  where ``violation`` grows with the depth of the constraint breach, so a
  simplex search is pushed back toward the valid region;
* a finite value is always returned: if the exact expression overflows, the
  point is penalised the same way, graded by how far the exponent exceeds the
  representable range.

The scalar kernels work in place on one scratch array (``x - mu``, then
scaled, then overwritten by its log and exp) and sum with ``np.add.reduce``.
Each step is the elementwise operation the written-out expression performs,
in the same order, so the values are bit for bit those of
``xi * (x - mu) / sigma`` and the rest computed with temporaries.
"""

import math

import numpy as np

PENALTY = 1e10
_OVERFLOW_EDGE = 690.0  # exp() overflows just above exp(709)
# ndarray.sum() without its Python-level wrapper: the same reduction, the same bits
_sum = np.add.reduce


def gumbel_nllh(x, mu, sigma):
    """Negative Gumbel log-likelihood: m*log(sigma) + sum z + sum exp(-z)."""
    if sigma <= 0.0:
        return PENALTY - sigma, False
    z = x - mu
    z /= sigma
    w = np.negative(z)
    with np.errstate(over="ignore"):
        # z is summed before exp(-z) overwrites it; -z stays for the overflow grading
        value = x.size * math.log(sigma) + float(_sum(z)) + float(_sum(np.exp(w, out=z)))
    if not math.isfinite(value):
        excess = float(np.clip(w - _OVERFLOW_EDGE, 0.0, None).sum())
        return PENALTY + excess, False
    return value, True


def gev_nllh(x, mu, sigma, xi):
    """Negative GEV log-likelihood for xi bounded away from zero.

    m*log(sigma) + (1+1/xi)*sum log t + sum t^(-1/xi) with t = 1+xi*(x-mu)/sigma,
    valid only while every t is strictly positive.  Callers route near-zero xi
    to :func:`gumbel_nllh`.
    """
    if sigma <= 0.0:
        return PENALTY - sigma, False
    s = x - mu
    s *= xi
    s /= sigma
    # 1 + s is exact for s in [-2, -0.5] and negative below, so t = 1 + s <= 0
    # holds for some element exactly when s.min() <= -1
    if s.size and s.min() <= -1.0:
        violation = float(np.clip(-(1.0 + s), 0.0, None).sum())
        return PENALTY + violation, False
    log_t = np.log1p(s)
    e = np.divide(log_t, -xi, out=s)  # t^(-1/xi) == exp(e); == -log_t / xi, bit for bit
    with np.errstate(over="ignore"):
        # log_t is summed before exp(e) overwrites it; e stays for the overflow grading
        value = (
            x.size * math.log(sigma)
            + (1.0 + 1.0 / xi) * float(_sum(log_t))
            + float(_sum(np.exp(e, out=log_t)))
        )
    if not math.isfinite(value):
        excess = float(np.clip(e - _OVERFLOW_EDGE, 0.0, None).sum())
        return PENALTY + excess, False
    return value, True


# -- row kernels --------------------------------------------------------------
#
# One parameter point per row of a (lanes, n) sample matrix, for the batched
# replicate engine.  Row r returns exactly what the scalar kernel returns for
# X[r]: the elementwise arithmetic is the same, every row sum reduces along
# the contiguous last axis (the same pairwise order as a 1-D sum), and
# m*log(sigma) uses math.log per lane.


def _lane_log(sigma, bad_sigma):
    # math.log, not np.log, whose SIMD loops may round differently; lanes with
    # sigma <= 0 get log(1) here and their penalty from the caller
    return np.fromiter(map(math.log, np.where(bad_sigma, 1.0, sigma).tolist()), float, sigma.size)


def gumbel_nllh_rows(X, mu, sigma):
    """Row-wise :func:`gumbel_nllh`: arrays ``(value, valid)`` of shape (lanes,)."""
    bad_sigma = sigma <= 0.0
    with np.errstate(all="ignore"):
        z = X - mu[:, None]
        z /= sigma[:, None]
        w = np.negative(z)
        # z is summed before exp(-z) overwrites it; w stays for the overflow grading
        value = X.shape[1] * _lane_log(sigma, bad_sigma) + z.sum(axis=1) + np.exp(w, out=z).sum(axis=1)
    valid = np.isfinite(value) & ~bad_sigma
    overflow = ~valid & ~bad_sigma
    if overflow.any():
        value[overflow] = PENALTY + np.clip(w[overflow] - _OVERFLOW_EDGE, 0.0, None).sum(axis=1)
    value[bad_sigma] = PENALTY - sigma[bad_sigma]
    return value, valid


def gev_nllh_rows(X, mu, sigma, xi):
    """Row-wise :func:`gev_nllh`: arrays ``(value, valid)`` of shape (lanes,)."""
    bad_sigma = sigma <= 0.0
    with np.errstate(all="ignore"):
        s = X - mu[:, None]
        s *= xi[:, None]
        s /= sigma[:, None]
        # 1 + s is exact for s in [-2, -0.5] and negative below, so the
        # scalar test t = 1 + s <= 0 holds exactly when s <= -1
        outside = (s <= -1.0).any(axis=1) & ~bad_sigma
        if outside.any():
            violation = np.clip(-(1.0 + s[outside]), 0.0, None).sum(axis=1)
        log_t = np.log1p(s)
        e = np.divide(log_t, -xi[:, None], out=s)  # == -log_t / xi, bit for bit
        # log_t is summed before exp(e) overwrites it; e stays for the overflow grading
        value = (
            X.shape[1] * _lane_log(sigma, bad_sigma)
            + (1.0 + 1.0 / xi) * log_t.sum(axis=1)
            + np.exp(e, out=log_t).sum(axis=1)
        )
    valid = np.isfinite(value) & ~bad_sigma & ~outside
    overflow = ~valid & ~bad_sigma & ~outside
    if overflow.any():
        value[overflow] = PENALTY + np.clip(e[overflow] - _OVERFLOW_EDGE, 0.0, None).sum(axis=1)
    if outside.any():
        value[outside] = PENALTY + violation
    value[bad_sigma] = PENALTY - sigma[bad_sigma]
    return value, valid
