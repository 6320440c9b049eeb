"""Matsubara-sum references for the thermal tests.

Each returns an observable's sum over the Matsubara frequencies
xi_n = 2 pi n T, n >= 1, and a bar for it: the direct sum of
`matsubara_sum` (any mirror pair, 4 / T q terms), the Bernoulli form of
`bernoulli_matsubara_sum` (constant loops, at any T q) and the
Euler-Maclaurin form of `euler_maclaurin_free_energy` (lorentzian and
perfect pairs, at any T q).  They share no code with the roundtrip
series they check.
"""

import math

import numpy as np
import pytest
import scipy.special


def matsubara_sum(observable, cfg):
    """An observable's Matsubara sum at T > 0, and the bar of its rounding.

    With xi_n = 2 pi n T, x = rbar(xi) e^{-2 q xi} and
    x' = x (d ln rbar/dxi - 2 q), where d ln rbar/dxi is
    -sum_i 1/(cutoff_i + xi) over the lorentzian mirrors,

        force            F = 2T sum_{n>=1} xi_n x_n / (1 - x_n)
        free energy      A =  T sum_{n>=1} ln(1 - x_n)
        internal energy  U =  T sum_{n>=1} xi_n x'_n / (1 - x_n).

    The n = 0 term is excluded, as in the roundtrip series.  The sum runs
    to n = max(2000, 4 / T q), past which the terms are below
    e^{-min(8000 pi T q, 16 pi)}, under 1e-21 relative; the bar allows
    16 eps per unit of sum_n |t_n| for their rounding.
    """
    T, q = cfg.temperature, cfg.q
    xi = 2.0 * math.pi * T * np.arange(1, max(2000, math.ceil(4.0 / (T * q))))
    x = cfg.loop_r_imag(xi) * np.exp(-2.0 * q * xi)
    if observable == "force":
        terms = 2.0 * T * xi * x / (1.0 - x)
    elif observable == "free energy":
        terms = T * np.log1p(-x)
    else:
        dlog = -sum(1.0 / (m.cutoff + xi) for m in (cfg.mirror1, cfg.mirror2)
                    if m.kind == "lorentzian")
        terms = T * xi * x * (dlog - 2.0 * q) / (1.0 - x)
    return math.fsum(terms), 16.0 * np.finfo(float).eps * np.abs(terms).sum()


_BERNOULLI = scipy.special.bernoulli(60)  # B_0..B_60, with B_1 = -1/2


def _zeta(n):
    """zeta(n) at an integer n != 1: zeta(-m) = (-1)^m B_{m+1} / (m + 1)."""
    if n >= 2:
        return float(scipy.special.zeta(n))
    return (-1) ** -n * _BERNOULLI[1 - n] / (1 - n)


def _eulerian(m):
    """The coefficients A(m, k), k < m, of the Eulerian polynomial A_m."""
    a = [1]
    for n in range(1, m + 1):
        a = [(k + 1) * (a[k] if k < len(a) else 0)
             + (n - k) * (a[k - 1] if k else 0) for k in range(n)]
    return a


def _li(s, mu, sign=1.0):
    """The polylogarithm Li_s(w), w = sign e^mu, for an integer s <= 4,
    mu < 0 and sign = +-1.

    s <= 0: w A_{-s}(w) / (1 - w)^{1-s}, with the Eulerian polynomial;
    s = 1: -ln(1 - w); s = 2..4: at w > 0 the expansion in mu about
    w = 1 for mu >= -1,
        sum_{k != s-1} zeta(s - k) mu^k / k!
        + mu^{s-1} / (s-1)! (H_{s-1} - ln(-mu)),
    and the direct sum of w^l / l^s, l <= 60, below; at w < 0 the
    duplication Li_s(-e^mu) = 2^{1-s} Li_s(e^{2 mu}) - Li_s(e^mu).
    """
    if sign < 0.0 and s >= 2:
        return 2.0 ** (1 - s) * _li(s, 2.0 * mu) - _li(s, mu)
    w = sign * math.exp(mu)
    gap = -math.expm1(mu) if sign > 0.0 else 1.0 - w  # 1 - w
    if s <= 0:
        return w * np.polyval(_eulerian(-s)[::-1], w) / gap ** (1 - s)
    if s == 1:
        return -math.log1p(-w) if w < 0.5 else -math.log(gap)
    if mu < -1.0:
        return math.fsum(w ** l / l ** s for l in range(1, 61))
    return math.fsum([_zeta(s - k) * mu ** k / math.factorial(k)
                      for k in range(40) if k != s - 1]
                     + [mu ** (s - 1) / math.factorial(s - 1)
                        * (sum(1.0 / j for j in range(1, s))
                           - math.log(-mu))])


def bernoulli_matsubara_sum(observable, r0, q, T, head=20, orders=8):
    """A Matsubara sum of a constant loop 0 < |r0| <= 1, and its bar.

    The Euler-Maclaurin (Bernoulli) form: with h = 2 pi T and
    xi_N = N h, N = head, the terms n < N are summed and the rest closes
    as h sum_{n>=N} f(n h) = int_{xi_N}^inf f + h f(xi_N) / 2
    - sum_{k<=orders} B_2k h^2k f^(2k-1)(xi_N) / (2k)!.  f is analytic
    within xi_N of xi_N, so the closure is good to about
    (2 orders + 1)! / (2 pi N)^(2 orders + 1) < 1e-20 relative, at any
    T q (at r0 < 0 the poles lie pi / c off the real axis, farther still).
    Every piece is a polylogarithm of w = r0 e^{-c xi}, c = 2 q,
    with d/dxi Li_s(w) = -c Li_{s-1}(w):
        force        F = (h / pi) sum_{n>=1} xi Li_0(w)
        free energy  A = (h / 2 pi) sum_{n>=1} -Li_1(w)
        pressure     P = (h / pi^2) sum'_{n>=0} G(xi_n), the n = 0 term
                     halved, G = int_xi^inf kappa^2 Li_0 dkappa
                     = xi^2 Li_1 / c + 2 xi Li_2 / c^2 + 2 Li_3 / c^3.
    The bar is 16 eps per unit of the summed |pieces| plus the last
    Bernoulli term.
    """
    h, c, a = 2.0 * math.pi * T, 2.0 * q, 2.0 * math.pi * T * head
    mu0, sign = math.log(abs(r0)), math.copysign(1.0, r0)

    def li(s, xi, m=0):  # d^m/dxi^m Li_s(r0 e^{-c xi})
        return (-c) ** m * _li(s - m, mu0 - c * xi, sign)

    if observable == "force":
        pref, f = 1.0 / math.pi, (lambda xi: xi * li(0, xi))
        integral = a * li(1, a) / c + li(2, a) / c**2
        deriv = lambda j: a * li(0, a, j) + j * li(0, a, j - 1)
        zero = []
    elif observable == "free energy":
        pref, f = 0.5 / math.pi, (lambda xi: -li(1, xi))
        integral = -li(2, a) / c
        deriv = lambda j: -li(1, a, j)
        zero = []
    else:
        pref = 1.0 / math.pi**2
        f = lambda xi: (xi**2 * li(1, xi) / c + 2.0 * xi * li(2, xi) / c**2
                        + 2.0 * li(3, xi) / c**3)
        integral = (a**2 * li(2, a) / c**2 + 4.0 * a * li(3, a) / c**3
                    + 6.0 * li(4, a) / c**4)
        # G' = -xi^2 Li_0(w), differentiated by Leibniz's rule
        deriv = lambda j: -(a * a * li(0, a, j - 1)
                            + 2.0 * (j - 1) * a * li(0, a, j - 2)
                            + (j - 1) * (j - 2) * li(0, a, j - 3))
        # half the n = 0 term, h G(0) / 2 = h Li_3(r0) / c^3, with
        # Li_3(1) = zeta(3) and Li_3(-1) = -3/4 zeta(3)
        li3 = (_zeta(3) * (1.0 if r0 > 0.0 else -0.75) if abs(r0) == 1.0
               else _li(3, mu0, sign))
        zero = [h * li3 / c**3]
    closure = [integral, 0.5 * h * f(a)] + [
        -_BERNOULLI[2 * k] * h ** (2 * k) / math.factorial(2 * k)
        * deriv(2 * k - 1) for k in range(1, orders + 1)]
    pieces = zero + [h * f(n * h) for n in range(1, head)] + closure
    bar = 16.0 * np.finfo(float).eps * sum(map(abs, pieces))
    return pref * math.fsum(pieces), pref * (bar + abs(closure[-1]))


def euler_maclaurin_free_energy(cfg, head=20, orders=8):
    """The free energy's Matsubara sum for lorentzian or perfect mirrors.

    A = T sum_{n>=1} f(xi_n), f = ln(1 - x), x = e^g and
    g(xi) = sum_i ln(cutoff_i / (cutoff_i + xi)) - 2 q xi over the
    lorentzian mirrors.  As in `bernoulli_matsubara_sum`, the terms
    n < N = head are summed and the rest closes as
    (1 / 2 pi) int_{xi_N}^inf f + T f(xi_N) / 2
    - T sum_{k<=orders} B_2k h^(2k-1) f^(2k-1)(xi_N) / (2k)!, h = 2 pi T.
    f is analytic within xi_N of xi_N (its nearest singularity is the
    zero of 1 - x at xi = 0) for T q << 1 / N, so the closure is good to
    about 1e-20 relative.  The Taylor coefficients of f at xi_N come from
    those of g by the power-series exponential and logarithm, and the
    integral from mpmath's quadrature, all at 30 digits.  The bar is the
    last Bernoulli term, the quadrature's error estimate and one rounding.
    """
    mpmath = pytest.importorskip("mpmath")
    cutoffs = [m.cutoff for m in (cfg.mirror1, cfg.mirror2)
               if m.kind == "lorentzian"]
    assert all(m.kind in ("lorentzian", "perfect")
               for m in (cfg.mirror1, cfg.mirror2))
    with mpmath.workdps(30):
        q, T = mpmath.mpf(cfg.q), mpmath.mpf(cfg.temperature)
        W = [mpmath.mpf(w) for w in cutoffs]
        h = 2 * mpmath.pi * T
        a = head * h

        def f(xi):
            g = sum(mpmath.log(w / (w + xi)) for w in W) - 2 * q * xi
            return mpmath.log(-mpmath.expm1(g))

        m = 2 * orders - 1
        # g(a + t) = sum_k gs[k] t^k, then x = e^g, s = 1 - x, f = ln s
        gs = ([sum(mpmath.log(w / (w + a)) for w in W) - 2 * q * a,
               -sum(1 / (w + a) for w in W) - 2 * q]
              + [sum((-1) ** k / (k * (w + a) ** k) for w in W)
                 for k in range(2, m + 1)])
        x = [mpmath.exp(gs[0])]
        for k in range(1, m + 1):
            x.append(sum(j * gs[j] * x[k - j] for j in range(1, k + 1)) / k)
        s = [-mpmath.expm1(gs[0])] + [-xk for xk in x[1:]]
        fs = [mpmath.log(s[0])]
        for k in range(1, m + 1):
            fs.append((k * s[k] - sum(j * fs[j] * s[k - j]
                                      for j in range(1, k))) / (k * s[0]))
        # f^(2k-1)(a) = (2k-1)! fs[2k-1]
        points = [a]
        while points[-1] < max(60 / q, 60 * max(W, default=0), 1):
            points.append(4 * points[-1])
        integral, quad_err = mpmath.quad(f, points + [mpmath.inf],
                                         error=True)
        closure = [integral / (2 * mpmath.pi), T * f(a) / 2] + [
            -mpmath.mpf(_BERNOULLI[2 * k]) * h ** (2 * k - 1) * T
            * fs[2 * k - 1] / (2 * k) for k in range(1, orders + 1)]
        value = float(mpmath.fsum([T * f(n * h) for n in range(1, head)]
                                  + closure))
    bar = (float(abs(closure[-1])) + float(quad_err) / (2 * math.pi)
           + np.spacing(abs(value)))
    return value, bar
