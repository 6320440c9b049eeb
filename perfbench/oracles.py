"""Reference values for the benchmark, computed without casmat.

Every evaluation the benchmark times is checked against a value from a route
that shares no code with the route under test:

* T = 0 observables: the imaginary-axis integral by scipy's QUADPACK at a
  tightened tolerance, or the closed forms for perfect mirrors;
* T > 0 observables: Matsubara (Lifshitz) sums over xi_n = 2 pi n T, in the
  form given for partially transmitting mirrors by Genet, Lambrecht &
  Reynaud, PRA 62, 012110 (2000); for perfect mirrors at T q <= 0.1 the
  sums are evaluated in closed form through their modular transformation;
* real-axis functions: -2 arg(1 - z) for the phase shift and analytic
  derivatives, with z = r1 r2 e^{2 i w q} built from the mirror formulas.

A loop reflection is described by a small tuple:

    ("perfect",)               r1 r2 = 1
    ("constant", r0)           r1 r2 = r0, 0 < r0 <= 1
    ("lorentzian", w1, w2)     r1 r2 = w1 w2 / ((w1 + xi)(w2 + xi))
    ("tabulated", xs, rs)      r1 = r2 = PCHIP through (xs, rs), held
                               constant outside the table

Each reference is returned as (value, error) with the error an upper bound
on the reference's own deviation.  Natural units, hbar = c = k_B = 1.
"""

import math
import warnings

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate
from scipy.interpolate import PchipInterpolator
from scipy.special import spence, zeta

EPS = np.finfo(float).eps

# terms of the Matsubara sums are dropped once 4 pi n T q exceeds this,
# i.e. once x_n < e^-60 relative to the first term
_MATSUBARA_EXPONENT = 60.0


class Loop:
    """Loop reflection rbar(xi) = r1[i xi] r2[i xi] with its log-derivative."""

    def __init__(self, spec):
        self.kind = spec[0]
        self.spec = spec
        if self.kind == "tabulated":
            self.knots = np.asarray(spec[1], dtype=float)
            self._rs = np.asarray(spec[2], dtype=float)
            self._pchip = PchipInterpolator(self.knots, self._rs,
                                            extrapolate=False)

    def log_r_scalar(self, xi):
        if self.kind == "perfect":
            return 0.0
        if self.kind == "constant":
            return math.log(self.spec[1])
        _, w1, w2 = self.spec
        return -math.log1p(xi / w1) - math.log1p(xi / w2)

    def log_r(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self.kind == "lorentzian":
            _, w1, w2 = self.spec
            return -np.log1p(xi / w1) - np.log1p(xi / w2)
        if self.kind == "tabulated":
            # held constant outside the table, as casmat's tabulated mirror
            lo, hi = self.knots[0], self.knots[-1]
            one = np.where(xi <= lo, self._rs[0],
                           np.where(xi >= hi, self._rs[-1],
                                    self._pchip(np.clip(xi, lo, hi))))
            return 2.0 * np.log(np.abs(one))
        return np.full_like(xi, self.log_r_scalar(0.0))

    def dlog_r(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self.kind == "lorentzian":
            _, w1, w2 = self.spec
            return -1.0 / (w1 + xi) - 1.0 / (w2 + xi)
        if self.kind in ("perfect", "constant"):
            return np.zeros_like(xi)
        raise ValueError("no analytic derivative for %s loops" % self.kind)


# ---------------------------------------------------------------- T = 0

def _quad_semi_infinite(f):
    """int_0^inf f(u) du for f decaying like e^-u, with its error bound.

    QUADPACK warns when roundoff stops it short of epsrel; its error
    estimate is still returned and used, so the warning is silenced."""
    total, err = 0.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for a, b in ((0.0, 1.0), (1.0, 8.0), (8.0, 40.0), (40.0, np.inf)):
            v, e = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13,
                                  limit=400)
            total += v
            err += e
    return total, err + 8.0 * EPS * abs(total)


def _gauss_pieces(f, edges):
    """int f over [edges[0], edges[-1]] by Gauss-Legendre on each piece.

    The error bound sums, piece by piece, the difference between the 24-
    and the 12-point rules."""
    a, b = edges[:-1, None], edges[1:, None]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    pieces = []
    for n in (24, 12):
        x, w = leggauss(n)
        pieces.append(half[:, 0] * (f(mid + half * x) @ w))
    total = math.fsum(pieces[0])
    err = float(np.sum(np.abs(pieces[0] - pieces[1])))
    return total, err + 8.0 * EPS * float(np.sum(np.abs(pieces[0])))


def _x_and_one_minus_x(loop, xi, q):
    mu = loop.log_r(xi) - 2.0 * q * xi
    return np.exp(mu), -np.expm1(mu)


def imag_axis_t0(observable, loop_spec, q):
    """T = 0 reference for force2d, energy2d, force4d (pressure), energy4d.

    force2d   F = (1/pi)      int dxi    xi   x/(1-x)
    energy2d  U = (1/2pi)     int dxi         ln(1-x)
    force4d   P = (1/pi^2)    int dkappa k^3  x/(1-x)
    energy4d  U = (1/2 pi^2)  int dkappa k^2  ln(1-x)

    with x = rbar(xi) e^{-2 q xi}.  Perfect mirrors use the closed forms
    pi/24q^2, -pi/24q, pi^2/240q^4 and -pi^2/720q^3.  A tabulated loop is
    a cubic between knots, so it is integrated knot to knot by Gauss rules
    (up to xi = 40/q, where x < e^-80); other loops by QUADPACK.
    """
    loop = Loop(loop_spec)
    if loop.kind == "perfect":
        value = {"force2d": math.pi / (24.0 * q * q),
                 "energy2d": -math.pi / (24.0 * q),
                 "force4d": math.pi**2 / (240.0 * q**4),
                 "energy4d": -math.pi**2 / (720.0 * q**3)}[observable]
        return value, 2.0 * EPS * abs(value)
    power, pref, log_form = {
        "force2d": (1, 1.0 / math.pi, False),
        "energy2d": (0, 0.5 / math.pi, True),
        "force4d": (3, 1.0 / math.pi**2, False),
        "energy4d": (2, 0.5 / math.pi**2, True)}[observable]
    if loop.kind == "tabulated":
        def fv(xi):
            x, omx = _x_and_one_minus_x(loop, xi, q)
            return xi**power * (_log_one_minus(x, omx) if log_form
                                else x / omx)

        xi_max = 40.0 / q
        knots = loop.knots[loop.knots < xi_max]
        value, err = _gauss_pieces(fv, np.concatenate(([0.0], knots,
                                                       [xi_max])))
        return pref * value, pref * err

    scale = 0.5 / q  # xi = scale * u

    def f(u):
        xi = scale * u
        mu = loop.log_r_scalar(xi) - 2.0 * q * xi
        omx = -math.expm1(mu)
        g = math.log(omx) if log_form else math.exp(mu) / omx
        return xi**power * g

    value, err = _quad_semi_infinite(f)
    return pref * scale * value, pref * scale * err


# ---------------------------------------------------------------- T > 0

def _matsubara_grid(q, T):
    n_max = int(math.ceil(_MATSUBARA_EXPONENT / (4.0 * math.pi * T * q))) + 2
    n = np.arange(1, n_max + 1, dtype=float)
    return 2.0 * math.pi * T * n


def _summed(terms):
    """Exactly rounded sum with a bound for the terms' own rounding."""
    return math.fsum(terms), 16.0 * EPS * float(np.sum(np.abs(terms)))


def matsubara_1d(observable, loop_spec, q, T):
    """1D thermal references, n = 0 excluded (the roundtrip convention).

    force2d       F = 2T sum_n xi_n x_n / (1 - x_n)
    free-energy   A = T  sum_n ln(1 - x_n)
    energy2d      U = T  sum_n xi_n x'_n / (1 - x_n),   x' = dx/dxi
    """
    loop = Loop(loop_spec)
    if loop.kind == "perfect" and T * q <= _DUAL_MAX_TQ:
        return _perfect_1d_dual(observable, q, T)
    xi = _matsubara_grid(q, T)
    x, omx = _x_and_one_minus_x(loop, xi, q)
    if observable == "force2d":
        terms = 2.0 * T * xi * x / omx
    elif observable == "free-energy":
        terms = T * _log_one_minus(x, omx)
    elif observable == "energy2d":
        dx = x * (loop.dlog_r(xi) - 2.0 * q)
        terms = T * xi * dx / omx
    else:
        raise ValueError(observable)
    return _summed(terms)


# below this T q, perfect-mirror sums go through the modular dual, whose
# terms decay like e^{-pi n / T q} < e^{-31 n}
_DUAL_MAX_TQ = 0.1


def _perfect_1d_dual(observable, q, T):
    """Perfect-mirror sums of matsubara_1d at small T q, in closed form.

    With x_n = e^{-4 pi n T q}, the force is 4 pi T^2 sum n x^n / (1 - x^n),
    a Lambert series of the Eisenstein series E_2, and the free energy is
    T ln prod (1 - x^n), the Dedekind eta function.  Their modular
    transformations give, with z = e^{-pi / T q},

        F = pi/24q^2 - T/2q + pi T^2/6 - (pi/q^2) sum n z^n / (1 - z^n)
        A = -pi/24q - (T/2) ln(2 T q) + pi T^2 q/6 + T sum ln(1 - z^n)

    and U = -q F.  Each piece is a few roundings from exact, and the series
    in z is summed until its terms underflow, so the error bound is a few
    ulps: tighter than the direct sum's, whose thousands of terms each carry
    their own rounding.
    """
    # z^n for n >= 25 is below e^-785 and underflows
    n = np.arange(1.0, 25.0)
    zn = math.exp(-math.pi / (T * q)) ** n
    if observable == "free-energy":
        pieces = [-math.pi / (24.0 * q), -0.5 * T * math.log(2.0 * T * q),
                  math.pi * T * T * q / 6.0, T * math.fsum(np.log1p(-zn))]
        value = math.fsum(pieces)
        return value, 3.0 * EPS * sum(map(abs, pieces)) + EPS * T
    pieces = [math.pi / (24.0 * q * q), -T / (2.0 * q), math.pi * T * T / 6.0,
              -math.pi / (q * q) * math.fsum(n * zn / (1.0 - zn))]
    value = math.fsum(pieces)
    err = 3.0 * EPS * sum(map(abs, pieces))
    if observable == "force2d":
        return value, err
    if observable == "energy2d":
        return -q * value, q * err + EPS * abs(q * value)
    raise ValueError(observable)


def _log_one_minus(x, omx):
    """ln(1 - x), given x and 1 - x, accurate for small and for near-1 x."""
    with np.errstate(divide="ignore"):
        return np.where(x < 0.5, np.log1p(-x), np.log(omx))


def _polylog_123(mu):
    """Li_1, Li_2, Li_3 at a = e^mu for mu <= 0 (vectorized).

    Li_1 = -ln(1 - a) and Li_2 = spence(1 - a) with 1 - a = -expm1(mu) kept
    exact; Li_3 by its defining series for a <= 1/2 and otherwise by the
    expansion about a = 1,
        Li_3(e^mu) = (mu^2/2)(3/2 - ln(-mu)) + sum_{k != 2} zeta(3-k) mu^k/k!.
    """
    mu = np.asarray(mu, dtype=float)
    a = np.exp(mu)
    oma = -np.expm1(mu)
    li1 = -_log_one_minus(a, oma)
    li2 = spence(oma)
    li3 = np.empty_like(mu)
    small = a <= 0.5
    power = a[small]
    term_sum = np.zeros_like(power)
    for ell in range(1, 61):  # a^ell / ell^3 < 2^-60 / 216000 beyond
        term_sum += power / float(ell) ** 3
        power = power * a[small]
        if not np.any(power > 1e-300):
            break
    li3[small] = term_sum
    m = mu[~small]
    with np.errstate(divide="ignore", invalid="ignore"):
        near = 0.5 * m * m * (1.5 - np.log(-m))
    near = np.where(m == 0.0, 0.0, near)
    for k in range(0, 40):
        if k == 2:
            continue
        c = zeta(3.0 - k) / math.factorial(k)
        if c != 0.0:
            near = near + c * m**k
    li3[~small] = near
    return li1, li2, li3


def matsubara_4d_pressure(loop_spec, q, T):
    """4D thermal pressure (2T/pi) sum'_n int_{xi_n}^inf k^2 x/(1-x) dk.

    The n = 0 term has half weight.  For a constant loop r0 the inner
    integral closes: with a = r0 e^{-2 q xi},
        int_xi^inf k^2 x/(1-x) dk = [xi^2 Li_1(a) + (xi/q) Li_2(a)
                                     + Li_3(a)/(2 q^2)] / (2q).
    """
    loop = Loop(loop_spec)
    if loop.kind not in ("perfect", "constant"):
        raise ValueError("the closed inner integral needs a constant loop")
    log_r0 = float(loop.log_r(0.0))
    xi = _matsubara_grid(q, T)
    li1, li2, li3 = _polylog_123(log_r0 - 2.0 * q * xi)
    inner = (xi * xi * li1 + (xi / q) * li2 + li3 / (2.0 * q * q)) / (2.0 * q)
    _, _, li3_0 = _polylog_123(np.array([log_r0]))
    n0 = 0.5 * float(li3_0[0]) / (4.0 * q**3)
    terms = (2.0 * T / math.pi) * np.concatenate(([n0], inner))
    return _summed(terms)


def classical_4d_pressure(r0, q, T):
    """The n = 0 Matsubara term alone: T Li_3(r0) / (4 pi q^3)."""
    _, _, li3 = _polylog_123(np.array([math.log(r0)]))
    value = T * float(li3[0]) / (4.0 * math.pi * q**3)
    return value, 16.0 * EPS * abs(value)


# ------------------------------------------------------- closed forms, T = 0

def polylog_direct(r0, p):
    """sum_l r0^l / l^p for 0 < r0 <= 1 (zeta(p) at r0 = 1)."""
    if r0 == 1.0:
        return float(zeta(float(p))), 4.0 * EPS * float(zeta(float(p)))
    _, li2, li3 = _polylog_123(np.array([math.log(r0)]))
    if p in (2, 3):
        v = float((li2 if p == 2 else li3)[0])
        return v, 16.0 * EPS * abs(v)
    # the tail beyond n_max terms is below r0^n_max / (1 - r0) < 1e-20
    n_max = min(200000, math.ceil(math.log(1e-20 * (1.0 - r0)) / math.log(r0)))
    ell = np.arange(1, n_max + 1, dtype=float)
    value, err = _summed(r0**ell / ell**p)
    return value, err + r0**n_max / (1.0 - r0)


def large_distance_t0(observable, r0, q):
    """force2d: Li_2(r0)/(4 pi q^2); force4d: 3 Li_4(r0)/(8 pi^2 q^4)."""
    if observable == "force2d":
        li, e = polylog_direct(r0, 2)
        pref = 1.0 / (4.0 * math.pi * q * q)
    else:
        li, e = polylog_direct(r0, 4)
        pref = 3.0 / (8.0 * math.pi**2 * q**4)
    return pref * li, pref * e + 2.0 * EPS * abs(pref * li)


# ------------------------------------------------------------- real axis

def lorentzian_r(w, omega):
    return -w / (w - 1j * omega)


def real_axis_loop(w1, w2, q, omega):
    """z = r1 r2 e^{2 i w q} and dz/dw for two lorentzian mirrors."""
    r = lorentzian_r(w1, omega) * lorentzian_r(w2, omega)
    z = r * np.exp(2j * omega * q)
    dlog = 2j * q + 1j / (w1 - 1j * omega) + 1j / (w2 - 1j * omega)
    return z, z * dlog


def phase_shift_ref(w1, w2, q, omega):
    """-2 arg(1 - z), with the bound eps |z| / |1 - z| on its rounding."""
    z, _ = real_axis_loop(w1, w2, q, omega)
    return -2.0 * float(np.angle(1.0 - z)), 8.0 * EPS / abs(1.0 - z)


def phase_shift_derivative_ref(w1, w2, q, omega):
    """d/dw of -2 arg(1 - z) = 2 Im[z' / (1 - z)]."""
    z, dz = real_axis_loop(w1, w2, q, omega)
    value = 2.0 * float((dz / (1.0 - z)).imag)
    return value, 8.0 * EPS * abs(dz) / abs(1.0 - z) ** 2
