"""Exact-series special functions used by the force and energy engines.

The large-distance limits of the mirror-pair observables close into bounded
polylogarithms zeta_x(p) = sum_{l>=1} x^l / l^p, the summation-rule oracles
need exact Bernoulli numbers, and the time-domain roundtrip integrals for
exponential reflection kernels collapse into Erlang (equal rates) or
hypoexponential (two distinct rates) delay densities.  Everything here is a
pure function.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, zeta

__all__ = [
    "polylog",
    "bernoulli",
    "erlang_weight",
    "hypoexp_weight",
]

# partial sums are accumulated in blocks of this many terms (numpy-vectorized)
_BLOCK = 4096


def polylog(x, p, tol=1e-12):
    """Bounded polylogarithm zeta_x(p) = sum_{l=1}^inf x^l / l^p.

    Parameters
    ----------
    x : float
        Series weight, |x| <= 1.
    p : int
        Order, p >= 2.  The series then converges absolutely on the whole
        closed interval |x| <= 1.
    tol : float
        Relative tolerance of the returned value.

    Returns
    -------
    float

    Notes
    -----
    For |x| < 1 the summation stops once the geometric tail bound
    |x|^(L+1) / ((L+1)^p (1-|x|)) drops below tolerance.  At x = 1 the
    value is zeta(p) and at x = -1 it is -(1 - 2^(1-p)) zeta(p), with zeta
    from scipy.  Just below 1 (1 - x < 1e-4) direct summation needs
    ~1/(1-x) terms, so the value is taken from the expansion about the unit
    point in mu = ln x,

        sum_{k != p-1} zeta(p-k) mu^k / k!
            + mu^(p-1)/(p-1)! (H_{p-1} - ln(-mu)),

    and near -1 the inversion  zeta_x(p) = 2^(1-p) zeta_{x^2}(p)
    - zeta_{-x}(p)  routes both pieces to cheap regions.
    """
    p = int(p)
    if p < 2:
        raise ValueError("polylog order must satisfy p >= 2")
    if abs(x) > 1:
        raise ValueError("polylog weight must satisfy |x| <= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return float(zeta(p))
    if x == -1.0:
        # alternating sum of l^-p in terms of the x = 1 value
        return -(1.0 - 2.0 ** (1 - p)) * float(zeta(p))
    if x > 1.0 - 1e-4:
        return _polylog_near_unit(x, p)
    if x < -(1.0 - 1e-4):
        # square-argument inversion: both pieces land in fast regions
        return (2.0 ** (1 - p) * polylog(x * x, p, 0.25 * tol)
                - polylog(-x, p, 0.25 * tol))

    total = 0.0
    start = 1
    ax = abs(x)
    while start < 10_000_000:
        ell = np.arange(start, start + _BLOCK, dtype=float)
        total += float(np.sum(x**ell / ell**p))
        last = start + _BLOCK - 1
        tail = ax ** (last + 1) / ((last + 1) ** p * (1.0 - ax))
        if tail <= tol * max(abs(total), 1e-300):
            return total
        start += _BLOCK
    raise RuntimeError("polylog summation failed to meet tolerance")


def _polylog_near_unit(x, p):
    # Expansion of the bounded polylog about the unit point, in mu = ln x.
    # Valid for |mu| < 2 pi; used only for 1 - x < 1e-4 where twelve terms
    # leave a remainder far below double precision.
    mu = math.log(x)
    harmonic = sum(1.0 / k for k in range(1, p))
    total = mu ** (p - 1) / math.factorial(p - 1) * (harmonic - math.log(-mu))
    powk = 1.0  # mu^k / k!
    for k in range(0, 13):
        if k != p - 1:
            total += float(zeta(p - k)) * powk
        powk *= mu / (k + 1)
    return total


def bernoulli(k):
    """Exact Bernoulli number B_k as a Fraction, for even k >= 2.

    Uses the defining recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 with B_0 = 1.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("bernoulli is defined here for even k >= 2")
    return _bernoulli_table(k)[k]


def _bernoulli_table(kmax):
    table = [Fraction(1)]
    for m in range(1, kmax + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * table[j]
        table.append(-acc / (m + 1))
    return table


def erlang_weight(ell, rate, s):
    """Density at s of the sum of ell independent exponential delays of rate.

    w(s) = rate^ell s^(ell-1) e^(-rate s) / (ell-1)!   for s >= 0,
    normalized to unit integral.  Vectorized over s.

    Parameters
    ----------
    ell : int, >= 1
    rate : float, > 0
    s : float or ndarray, >= 0
    """
    if ell < 1 or int(ell) != ell:
        raise ValueError("ell must be an integer >= 1")
    if rate <= 0:
        raise ValueError("rate must be positive")
    ell = int(ell)
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0):
        raise ValueError("s must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = (
            ell * math.log(rate)
            + (ell - 1) * np.log(s_arr)
            - rate * s_arr
            - gammaln(ell)
        )
        w = np.exp(logw)
    # the s = 0 endpoint: rate for a single delay, zero for ell >= 2
    w = np.where(s_arr == 0.0, rate if ell == 1 else 0.0, w)
    return float(w) if np.ndim(s) == 0 else w


def hypoexp_weight(ell, rate1, rate2, s):
    """Density at s of ell exponential delays of rate1 plus ell of rate2.

    This is the 2*ell-fold convolution of the two exponential families.  The
    closed form is evaluated through the confluent-hypergeometric series

        w(s) = (rate1 rate2)^ell s^(2 ell - 1) e^(-b s)
               * 1F1(ell; 2 ell; (b - a) s) / (2 ell - 1)!

    with a = min(rate1, rate2), b = max(rate1, rate2).  Every series term is
    positive, so the evaluation is cancellation-free for any ell (the textbook
    alternating partial-fraction mixture loses all precision near ell ~ 25).
    Rates closer than one part in 1e9 fall back to the Erlang form at the
    mean rate.  Vectorized over s.
    """
    if ell < 1 or int(ell) != ell:
        raise ValueError("ell must be an integer >= 1")
    if rate1 <= 0 or rate2 <= 0:
        raise ValueError("rates must be positive")
    a, b = min(rate1, rate2), max(rate1, rate2)
    if (b - a) <= 1e-9 * b:
        return erlang_weight(2 * ell, 0.5 * (a + b), s)
    ell = int(ell)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr < 0):
        raise ValueError("s must be nonnegative")

    z = (b - a) * s_arr
    zmax = float(np.max(z))
    # series terms of 1F1(ell;2ell;z) decay beyond k ~ z; generous cap
    K = int(zmax + 16.0 * math.sqrt(zmax + 1.0) + 48)
    k = np.arange(K + 1, dtype=float)
    # log of the full k-th contribution, split into s-independent and s parts
    log_coeff = gammaln(ell + k) - gammaln(ell) - gammaln(2 * ell + k) - gammaln(k + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_z = np.log(z)
        log_terms = (
            log_coeff[None, :]
            + k[None, :] * log_z[:, None]
            + (ell * (math.log(a) + math.log(b)))
            + (2 * ell - 1) * np.log(s_arr)[:, None]
            - b * s_arr[:, None]
        )
    m = np.max(log_terms, axis=1, keepdims=True)
    w = np.where(
        s_arr > 0.0,
        (np.exp(m[:, 0]) * np.sum(np.exp(log_terms - m), axis=1)),
        0.0,
    )
    if np.ndim(s) == 0:
        return float(w[0])
    return w.reshape(np.shape(s))
