"""Numpy implementations of the negative log-likelihood kernels.

The scalar kernels share one contract:

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


# -- derivative row kernels ---------------------------------------------------
#
# Per lane: the row kernel's value and validity, bit for bit, plus the sums
# that give the score (gradient) and the observed information (Hessian) of
# the negative log-likelihood in (mu, sigma[, xi]).  With z = (x - mu)/sigma, the per-value
# nllh is log(sigma) + h(z, xi), where h = z + exp(-z) on the Gumbel surface
# and h = log t + y + exp(-y), t = 1 + xi*z, y = log(t)/xi, on the GEV one
# (Prescott & Walden 1980; Hosking 1985).  Each kernel forms the per-lane
# sums of the z- and xi-derivatives of h, and ``score_info`` maps them to
# (mu, sigma[, xi]) by the chain rule.  Every sum reduces along the
# contiguous last axis and everything else is elementwise per lane, so row r
# is what the same call on X[r:r+1] returns.  ``blockmax.likelihood`` runs
# them over a pass of lanes block by block.

# Lanes whose |xi*z| stays at or below this over the row take the xi-terms
# from the series below: there the closed forms lose digits to the
# cancellation of their 1/xi^2 to 1/xi^4 factors, and at xi = 0 they are 0/0.
# SERIES_TERMS terms keep the truncation under 1e-19 relative.
SERIES_RADIUS = 0.01
SERIES_TERMS = 10


def score_info(n, sigma, hz, zhz, hzz, zhzz, z2hzz, xi_sums=None):
    """Score and information from the lane sums of the derivatives of h.

    ``hz`` is the sum of dh/dz, ``zhz`` that of z*dh/dz, and so on;
    ``xi_sums``, for the GEV, are the sums of dh/dxi, d2h/dz dxi,
    z*d2h/dz dxi and d2h/dxi2.
    """
    d = 2 if xi_sums is None else 3
    score = np.empty((sigma.size, d))
    info = np.empty((sigma.size, d, d))
    var = sigma * sigma
    score[:, 0] = -hz / sigma
    score[:, 1] = (n - zhz) / sigma
    info[:, 0, 0] = hzz / var
    info[:, 0, 1] = info[:, 1, 0] = (zhzz + hz) / var
    info[:, 1, 1] = (2.0 * zhz + z2hzz - n) / var
    if xi_sums is not None:
        hx, hzx, zhzx, hxx = xi_sums
        score[:, 2] = hx
        info[:, 0, 2] = info[:, 2, 0] = -hzx / sigma
        info[:, 1, 2] = info[:, 2, 1] = -zhzx / sigma
        info[:, 2, 2] = hxx
    return score, info


def _penalized(kernel, X, value, valid, *params):
    # invalid lanes take the row kernel's graded penalty, bit for bit
    bad = ~valid
    if bad.any():
        value[bad] = kernel(X[bad], *(p[bad] for p in params))[0]
    return value


def gumbel_derivatives_rows(X, mu, sigma):
    """Row-wise ``(value, valid, score, info)`` of the Gumbel nllh in (mu, sigma).

    ``value`` and ``valid`` are :func:`gumbel_nllh_rows`' bit for bit; the
    score has shape (lanes, 2) and the information (lanes, 2, 2).  The
    derivatives of lanes that are not valid are meaningless.
    """
    n = X.shape[1]
    bad_sigma = sigma <= 0.0
    with np.errstate(all="ignore"):
        z = X - mu[:, None]
        z /= sigma[:, None]
        w = np.negative(z)
        z_sum = z.sum(axis=1)
        u = np.exp(w, out=z)
        u_sum = u.sum(axis=1)
        value = n * _lane_log(sigma, bad_sigma) + z_sum + u_sum
        # dh/dz = 1 - u and d2h/dz2 = u, with u = exp(-z) = exp(w)
        u *= w
        zu_sum = -u.sum(axis=1)
        u *= w
        z2u_sum = u.sum(axis=1)
    valid = np.isfinite(value) & ~bad_sigma
    value = _penalized(gumbel_nllh_rows, X, value, valid, mu, sigma)
    score, info = score_info(n, sigma, n - u_sum, z_sum - zu_sum, u_sum, zu_sum, z2u_sum)
    return value, valid, score, info


def gev_derivative_sums(X, mu, sigma, xi):
    """Row-wise ``(value, valid, sums, series)`` of the GEV nllh in (mu, sigma, xi).

    ``value`` and ``valid`` are :func:`gev_nllh_rows`' bit for bit, so a lane
    with xi = 0 is not valid here (callers route |xi| < GUMBEL_XI_EPS to the
    Gumbel surface for the value).  ``sums`` are the nine derivative sums
    that :func:`score_info` maps to the score and the information, from the
    closed forms; ``series`` marks the lanes whose |xi*z| stays within
    SERIES_RADIUS, whose sums the caller takes from :func:`gev_series_sums`
    instead, so that they are continuous through xi = 0.  The sums of lanes
    that are not valid are meaningless.

    One log1p/exp pass gives log t and u = t^(-1/xi).  With s = xi*z,
    p = s/t and y1 = p - log t, every derivative sum is a combination of the
    sums of p, p^2, u*p, u*p^2, y1, u*y1, u*p*y1 and u*y1^2, since 1/t = 1 - p
    and z = s/xi.  Beyond the row kernel's two (lanes, n) arrays this holds
    two more.
    """
    n = X.shape[1]
    bad_sigma = sigma <= 0.0
    xi_ = xi[:, None]
    with np.errstate(all="ignore"):
        s = X - mu[:, None]
        s *= xi_
        s /= sigma[:, None]
        low, high = s.min(axis=1), s.max(axis=1)
        log_t = np.log1p(s)
        u = np.divide(log_t, -xi_)
        np.exp(u, out=u)
        u_sum = u.sum(axis=1)
        value = n * _lane_log(sigma, bad_sigma) + (1.0 + 1.0 / xi) * log_t.sum(axis=1) + u_sum

        tmp = np.add(s, 1.0)
        p = np.divide(s, tmp, out=s)
        y1 = np.subtract(p, log_t, out=log_t)
        p_sum = p.sum(axis=1)
        p2_sum = np.multiply(p, p, out=tmp).sum(axis=1)
        up_sum = np.multiply(u, p, out=tmp).sum(axis=1)
        up2_sum = np.multiply(tmp, p, out=tmp).sum(axis=1)
        y1_sum = y1.sum(axis=1)
        uy1_sum = np.multiply(u, y1, out=tmp).sum(axis=1)
        uy1y1_sum = np.multiply(y1, tmp, out=y1).sum(axis=1)
        upy1_sum = np.multiply(tmp, p, out=tmp).sum(axis=1)

        # the sums of the derivatives of h, with 1/t = 1 - p and z = p*t/xi
        c = 1.0 + xi
        r2_sum = n - 2.0 * p_sum + p2_sum
        rp_sum, urp_sum = p_sum - p2_sum, up_sum - up2_sum
        sums = [
            c * (n - p_sum) - (u_sum - up_sum),
            (c * p_sum - up_sum) / xi,
            c * ((u_sum - 2.0 * up_sum + up2_sum) - xi * r2_sum),
            c * (urp_sum - xi * rp_sum) / xi,
            c * (up2_sum - xi * p2_sum) / xi**2,
            p_sum / xi + (y1_sum - uy1_sum) / xi**2,
            r2_sum + (uy1_sum - upy1_sum) / xi**2 - (rp_sum - urp_sum) / xi,
            rp_sum / xi + upy1_sum / xi**3 - (p2_sum - up2_sum) / xi**2,
            (-p2_sum / xi**2 + uy1y1_sum / xi**4
             + (-2.0 * (y1_sum - uy1_sum) - (p2_sum - up2_sum)) / xi**3),
        ]
    series = (low >= -SERIES_RADIUS) & (high <= SERIES_RADIUS)
    valid = np.isfinite(value) & ~bad_sigma & ~(low <= -1.0)
    value = _penalized(gev_nllh_rows, X, value, valid, mu, sigma, xi)
    return value, valid, sums, series


def _series(coefficient, s):
    """sum of coefficient(j) * s**j over the first SERIES_TERMS powers, by Horner's rule."""
    out = np.full_like(s, coefficient(SERIES_TERMS - 1))
    for j in reversed(range(SERIES_TERMS - 1)):
        out *= s
        out += coefficient(j)
    return out


# The coefficients of s**j in log1p(s)/s, (s/(1+s) - log1p(s))/s^2 and
# (2 log1p(s) - 2s/(1+s) - s^2/(1+s)^2)/s^3.
def _psi0(j):
    return (-1.0) ** j / (j + 1)


def _phi1(j):
    return (-1.0) ** (j + 1) * (j + 1) / (j + 2)


def _phi2(j):
    return (-1.0) ** j * (j + 1) * (j + 2) / (j + 3)


def gev_series_sums(X, mu, sigma, xi):
    """The nine derivative sums of :func:`gev_derivative_sums` from series in s = xi*z.

    y = log(t)/xi and its first two xi-derivatives are z*psi0(s), z^2*phi1(s)
    and z^3*phi2(s), with the power series above, so nothing cancels.
    """
    xi_ = xi[:, None]
    with np.errstate(all="ignore"):
        z = X - mu[:, None]
        z /= sigma[:, None]
        s = z * xi_
        r = 1.0 / (1.0 + s)
        u = np.exp(-z * _series(_psi0, s))
        yx = z * z * _series(_phi1, s)
        yxx = z * z * z * _series(_phi2, s)
        c = 1.0 + xi_
        hz = (c - u) * r
        hzz = c * (u - xi_) * r * r
        hzx = r * r + u * r * yx - (1.0 - u) * z * r * r
        terms = [
            hz, z * hz, hzz, z * hzz, z * z * hzz,
            z * r + (1.0 - u) * yx,
            hzx, z * hzx,
            -(z * r) ** 2 + u * yx * yx + (1.0 - u) * yxx,
        ]
    return [term.sum(axis=1) for term in terms]
