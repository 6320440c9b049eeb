"""Exact-series special functions used by the force and energy engines.

The large-distance limits of the mirror-pair observables close into bounded
polylogarithms zeta_x(p) = sum_{l>=1} x^l / l^p, the summation-rule oracles
need exact Bernoulli numbers, and the time-domain roundtrip integrals for
exponential reflection kernels collapse into Erlang (equal rates) or
hypoexponential (two distinct rates) delay densities.  Everything here is a
pure function.  scipy is reached as `scipy.special.<fn>` at call time, so
only a process that calls one of those loads scipy.special (polylog: only
for |x| > 0.9).
"""

import functools
import math
from fractions import Fraction

import numpy as np
import scipy

__all__ = [
    "polylog",
    "bernoulli",
    "erlang_weight",
    "hypoexp_weight",
]


def polylog(x, p):
    """Bounded polylogarithm zeta_x(p) = sum_{l=1}^inf x^l / l^p, to rounding.

    Parameters
    ----------
    x : float
        Series weight, |x| <= 1.
    p : int
        Order, an integer p >= 2 (an integral float such as 2.0 too).  The
        series then converges absolutely on the whole closed interval
        |x| <= 1.

    Returns
    -------
    float

    Notes
    -----
    Three regimes, chosen by x alone.  For 0 <= x <= 0.9 it is the direct
    sum of the first 300 terms, whose tail is below 0.9^301 / (0.1 301^2),
    about 2e-18 of the sum; no scipy is loaded.  For 0.9 < x < 1 direct
    summation needs ~1/(1-x) terms, so the value is taken from the
    expansion about the unit point in mu = ln x, valid for |mu| < 2 pi:
    here |mu| < 0.106, so its 13 terms leave a remainder of order
    (|mu|/2 pi)^13,

        sum_{k != p-1} zeta(p-k) mu^k / k!
            + mu^(p-1)/(p-1)! (H_{p-1} - ln(-mu)),

    with zeta from scipy; at x = 1 the value is zeta(p).  For x < 0 the
    square-argument inversion  zeta_x(p) = 2^(1-p) zeta_{x^2}(p)
    - zeta_{-x}(p)  takes both pieces, which are nonnegative, to the
    regimes above.
    """
    if not float(p).is_integer():
        raise ValueError("polylog order must be an integer")
    p = int(p)
    if p < 2:
        raise ValueError("polylog order must satisfy p >= 2")
    if not -1.0 <= x <= 1.0:
        raise ValueError("polylog weight must satisfy |x| <= 1")
    if x < 0.0:
        return 2.0 ** (1 - p) * polylog(x * x, p) - polylog(-x, p)
    if x <= 0.9:
        ell = np.arange(1.0, 301.0)
        return float(np.sum(x**ell * ell**-p))
    if x == 1.0:
        return float(scipy.special.zeta(p))
    mu = math.log(x)
    k = np.arange(13.0)
    terms = scipy.special.zeta(p - k) * mu**k / scipy.special.gamma(k + 1)
    log_factor = sum(1.0 / j for j in range(1, p)) - math.log(-mu)
    return float(mu ** (p - 1) / scipy.special.gamma(p) * log_factor
                 + np.sum(terms, where=k != p - 1))


def bernoulli(k):
    """Exact Bernoulli number B_k as a Fraction, for even k >= 2.

    Uses the defining recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 with B_0 = 1.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("bernoulli is defined here for even k >= 2")
    return _bernoulli_table(k)[k]


@functools.lru_cache(maxsize=32)
def _bernoulli_table(kmax):
    table = [Fraction(1)]
    for m in range(1, kmax + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * table[j]
        table.append(-acc / (m + 1))
    return tuple(table)  # read-only: the cache shares it


def _roundtrips(ell):
    """ell as a float array, checked to hold only finite reals >= 1."""
    ell = np.asarray(ell, dtype=float)
    if not np.all((ell >= 1.0) & (ell < np.inf)):
        raise ValueError("ell must be finite and >= 1")
    return ell


def _delays(s):
    """s as a float array, checked to hold only finite delays >= 0."""
    s = np.asarray(s, dtype=float)
    if not np.all((s >= 0.0) & (s < np.inf)):
        raise ValueError("s must be finite and nonnegative")
    return s


def erlang_weight(ell, rate, s):
    """Density at s of the sum of ell independent exponential delays of rate.

    w(s) = rate^ell s^(ell-1) e^(-rate s) / Gamma(ell)   for s >= 0,
    normalized to unit integral: the Gamma(ell, rate) law, which takes real
    ell too.  Elementwise in ell and s, which broadcast against each other.

    Parameters
    ----------
    ell : float or ndarray, finite and >= 1
    rate : float, > 0
    s : float or ndarray, >= 0
    """
    ell = _roundtrips(ell)
    if not 0.0 < rate < np.inf:
        raise ValueError("rate must be positive and finite")
    s_arr = _delays(s)
    # xlogy is 0 at s = 0 for a single delay and -inf for ell > 1
    logw = (ell * math.log(rate) + scipy.special.xlogy(ell - 1, s_arr)
            - rate * s_arr - scipy.special.gammaln(ell))
    w = np.exp(logw)
    return float(w) if w.ndim == 0 else w


def hypoexp_weight(ell, rate1, rate2, s):
    """Density at s of ell exponential delays of rate1 plus ell of rate2.

    With d = |rate2 - rate1| and nu = ell - 1/2, DLMF 13.6.9 turns the
    convolution of the two Gamma(ell) laws, at either rate, into

        w(s) = (rate1 rate2)^ell sqrt(pi) / Gamma(ell) * (s/d)^nu
               * e^(-min(rate1, rate2) s) * ive(nu, d s / 2),

    with scipy's exponentially scaled Bessel function ive (AMOS).  Where
    ive falls below the smallest normal float (d s small against ell:
    nearly equal rates, d = 0 or s = 0) or fails (d s / 2 > 2^30) a node
    takes Kummer's 0F1 form

        w(s) = (rate1 rate2)^ell s^(2 ell - 1) e^(-(rate1 + rate2) s / 2)
               * 0F1(; ell + 1/2; (d s / 4)^2) / Gamma(2 ell),

    finite for nearly equal rates (d = 0: the Erlang density; s = 0:
    zero), and where 0F1 overflows as well (ell > 1900 and d s / 2 of the
    order of ell, or d s / 2 > 2^30) the Bessel form with log ive from
    Debye's expansion.  Each is summed in log space, and the form is
    chosen node by node from the value of the one before, so no node's
    value depends on the other nodes of its call.

    Elementwise in ell (reals >= 1) and s, which broadcast against each
    other, so one call serves nodes of many roundtrip orders.
    """
    ell = _roundtrips(ell)
    if not (0.0 < rate1 < np.inf and 0.0 < rate2 < np.inf):
        raise ValueError("rates must be positive and finite")
    ell, s = np.broadcast_arrays(ell, _delays(s))
    shape = s.shape
    ell, s = ell.ravel(), s.ravel()

    d = abs(rate2 - rate1)
    nu, z = ell - 0.5, 0.5 * d * s
    log_rates = math.log(rate1 * rate2)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the Bessel form but for its log ive(nu, z)
        head = (ell * log_rates + 0.5 * math.log(math.pi)
                - scipy.special.gammaln(ell) + nu * np.log(s / d)
                - min(rate1, rate2) * s)
        bessel = scipy.special.ive(nu, z)
        log_w = head + np.log(bessel)
        # not >= tiny: also NaN, which ive returns past d s / 2 = 2^30
        near = np.flatnonzero(~(bessel >= np.finfo(float).tiny))
        ln, sn = ell[near], s[near]
        log_w[near] = (ln * log_rates + scipy.special.xlogy(2 * ln - 1, sn)
                       - 0.5 * (rate1 + rate2) * sn
                       - scipy.special.gammaln(2 * ln)
                       + np.log(scipy.special.hyp0f1(
                           ln + 0.5, (0.5 * z[near]) ** 2)))
        over = near[~(log_w[near] < np.inf)]
        log_w[over] = head[over] + _log_ive_debye(nu[over], z[over])
        w = np.exp(log_w).reshape(shape)
    return float(w) if w.ndim == 0 else w


def _log_ive_debye(nu, z):
    """log ive(nu, z) from Debye's expansion (DLMF 10.41.3) to 1/nu^3.

    The first omitted term, u_4(p) / nu^4, is at most 0.021 / nu^4 and
    about 0.11 / z^4 for z >> nu: below 2e-15 where it is used (nu > 1900,
    or z > 2^30).
    """
    t = z / nu
    root = np.sqrt(1.0 + t * t)
    p = 1.0 / root
    p2 = p * p
    u1 = p * (3.0 - 5.0 * p2) / 24.0
    u2 = p2 * (81.0 - p2 * (462.0 - 385.0 * p2)) / 1152.0
    u3 = p ** 3 * (30375.0 - p2 * (369603.0 - p2 * (765765.0 - 425425.0 * p2)))
    series = 1.0 + (u1 + (u2 + u3 / (414720.0 * nu)) / nu) / nu
    # nu (root - t) + nu log(t / (1 + root)), with root - t = 1/(root + t)
    return (nu * (1.0 / (root + t) + np.log(t / (1.0 + root)))
            - 0.5 * np.log(2.0 * math.pi * nu * root) + np.log(series))
