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
from scipy.special import gammaln, xlogy, zeta

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


def _roundtrips(ell):
    """ell as an integer array, checked to hold only integers >= 1."""
    ell = np.asarray(ell)
    if not np.all((ell >= 1) & (ell < np.inf) & (ell == np.floor(ell))):
        raise ValueError("ell must be an integer >= 1")
    return ell.astype(int)


def _delays(s):
    """s as a float array, checked to hold only finite delays >= 0."""
    s = np.asarray(s, dtype=float)
    if not np.all((s >= 0.0) & (s < np.inf)):
        raise ValueError("s must be finite and nonnegative")
    return s


def erlang_weight(ell, rate, s):
    """Density at s of the sum of ell independent exponential delays of rate.

    w(s) = rate^ell s^(ell-1) e^(-rate s) / (ell-1)!   for s >= 0,
    normalized to unit integral.  Elementwise in ell and s, which
    broadcast against each other.

    Parameters
    ----------
    ell : int or integer ndarray, >= 1
    rate : float, > 0
    s : float or ndarray, >= 0
    """
    ell = _roundtrips(ell)
    if not 0.0 < rate < np.inf:
        raise ValueError("rate must be positive and finite")
    s_arr = _delays(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = (
            ell * math.log(rate)
            + (ell - 1) * np.log(s_arr)
            - rate * s_arr
            - gammaln(ell)
        )
        w = np.exp(logw)
    # the s = 0 endpoint: rate for a single delay, zero for ell >= 2
    w = np.where(s_arr == 0.0, np.where(ell == 1, rate, 0.0), w)
    return float(w) if w.ndim == 0 else w


# elements of one window group's temporaries in `hypoexp_weight`
_WINDOW_ELEMENTS = 16384


def hypoexp_weight(ell, rate1, rate2, s):
    """Density at s of ell exponential delays of rate1 plus ell of rate2.

    The 2*ell-fold convolution of the two exponential families; Kummer's
    identity 1F1(ell; 2 ell; z) = e^(z/2) 0F1(; ell + 1/2; z^2/16) gives

        w(s) = (rate1 rate2)^ell s^(2 ell - 1) e^(-(rate1 + rate2) s / 2)
               * 0F1(; c; y) / (2 ell - 1)!,   c = ell + 1/2,

    with y = ((rate2 - rate1) s)^2 / 16 (y = 0: the Erlang density).  The
    0F1 terms y^k / (k! (c)_k) are all positive, so nothing cancels at any
    ell (the alternating partial-fraction form loses all digits near
    ell ~ 25).  Each node sums them outward from its peak k* = floor(2y /
    (sqrt(c^2 + 4y) + c)) by running products of the ratios
    y / ((k + 1)(c + k)), 9 sqrt(k* + 1) + 12 terms each way (they fall
    like a Gaussian of width <= sqrt(k*)), with `gammaln` for the peak
    term only: O(sqrt(k*)) per node, and no node depends on another.

    Elementwise in ell (an int or integer array) and s, which broadcast
    against each other, so one call serves nodes of many roundtrip
    orders.  Nodes are summed in groups of similar window length, sorted
    by length, and each group's rows are padded only to the group's
    longest window, and the side below the peak only to the group's
    largest k*, as the terms stop at k = 0.  A group's temporaries hold at most
    `_WINDOW_ELEMENTS` (16,384) floats, or one node's window if that is
    longer, so memory stays bounded whatever the number of nodes.  A
    node's sums are running sums along its own row, so they do not depend
    on the padding or on the other nodes of its group.
    """
    ell = _roundtrips(ell)
    if not (0.0 < rate1 < np.inf and 0.0 < rate2 < np.inf):
        raise ValueError("rates must be positive and finite")
    ell, s = np.broadcast_arrays(ell, _delays(s))
    shape = s.shape
    ell, s = ell.ravel(), s.ravel()

    c = ell + 0.5
    # floored at the smallest normal float so that log y and 1/y stay finite
    y = np.maximum((0.25 * (rate2 - rate1) * s) ** 2, np.finfo(float).tiny)
    peak = np.floor(2.0 * y / (np.sqrt(c * c + 4.0 * y) + c))
    last = np.ceil(9.0 * np.sqrt(peak + 1.0) + 12.0).astype(int) - 1
    total = np.empty_like(y)
    order = np.argsort(last, kind="stable")
    size = last[order] + 1  # window lengths, shortest first
    lo = 0
    while lo < y.size:
        # the next nodes whose windows are at most 5/4 of the shortest
        # left, as many of them as the element cap allows
        hi = np.searchsorted(size, size[lo] * 5 // 4, side="right")
        hi = min(hi, lo + max(1, _WINDOW_ELEMENTS // size[hi - 1]))
        rows = order[lo:hi]
        total[rows] = _window_sums(y[rows], c[rows], peak[rows], last[rows])
        lo = hi
    log_w = (ell * math.log(rate1 * rate2) + xlogy(2 * ell - 1, s)
             - 0.5 * (rate1 + rate2) * s - gammaln(2 * ell) + gammaln(c)
             + peak * np.log(y) - gammaln(peak + 1.0) - gammaln(c + peak))
    w = np.exp(log_w + np.log(total)).reshape(shape)
    return float(w) if w.ndim == 0 else w


def _window_sums(y, c, peak, last):
    """1 + the 0F1 terms over each node's window, in units of its peak term.

    Ratios y / (m (c + m - 1)) above the peak, m = k* + j, and their
    inverses below it, m = k* + 1 - j (zero past k = 0), for
    j = 1 .. last_i + 1, each side summed by running products and sums
    along the node's row.
    """
    j = np.arange(1.0, last.max() + 2.0)
    cm1 = (c - 1.0)[:, None]
    up = peak[:, None] + j
    up = y[:, None] / (up * (up + cm1))
    # below the peak the ratio is zero at k = 0 and so is every running
    # product after it: node i's sum is complete at j = min(last_i, k*_i) + 1
    stop = np.minimum(last, peak).astype(int)
    down = np.maximum(peak[:, None] + 1.0 - j[:stop.max() + 1], 0.0)
    down *= down + cm1
    down /= y[:, None]
    rows, total = np.arange(y.size), 1.0
    for ratios, at in ((up, last), (down, stop)):
        np.cumprod(ratios, axis=1, out=ratios)
        total = total + np.cumsum(ratios, axis=1, out=ratios)[rows, at]
    return total
