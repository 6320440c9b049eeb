"""Field-fluctuation kernels in the time and frequency domains.

The force and energy engines consume vacuum/thermal two-point kernels
evaluated at roundtrip delays.  In natural units (hbar = c = k_B = 1):

* c(tau)    = -1/(pi tau^2)                    1D vacuum kernel,
* c_T(tau)  = -(alpha^2/pi)/sinh^2(alpha tau)  thermal, alpha = pi T,
* k_T(tau)  = (alpha/2 pi)(1 - coth(alpha tau))  the free-energy kernel,
  normalized to vanish at infinite delay, with 2 dk_T/dtau = -c_T,
* C(tau)    = 6/(pi^2 tau^4)                   4D vacuum kernel,
* C_T(tau)  = (1/pi^2) d^2/dtau^2 [alpha coth(alpha tau)/tau]  4D thermal.

All are pure, vectorized over tau, and switch to exponential asymptotics
where sinh/cosh would overflow.
"""

import numpy as np

__all__ = [
    "vacuum_kernel_time",
    "thermal_kernel_time",
    "free_energy_kernel_time",
    "kernel_4d_vacuum",
    "kernel_4d_thermal",
]

# beyond this value of alpha*tau the relative error of the pure-exponential
# asymptotics is below ~4 e^{-2x} < 1e-17
_ASYMPTOTIC_X = 20.0


def _check_tau(tau):
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("kernel requires tau > 0")
    return tau


def vacuum_kernel_time(tau):
    """Vacuum field-correlation kernel c(tau) = -1/(pi tau^2)."""
    tau = _check_tau(tau)
    out = -1.0 / (np.pi * tau**2)
    return float(out) if out.ndim == 0 else out


def thermal_kernel_time(tau, T):
    """Thermal kernel c_T(tau) = -(alpha^2/pi)/sinh^2(alpha tau), alpha = pi T.

    Reduces to the vacuum kernel at T = 0, and to the exponentially small
    -4 pi T^2 e^{-2 alpha tau} once alpha tau exceeds ~20 (where the exact
    and asymptotic forms already agree to ~1e-17).
    """
    tau = _check_tau(tau)
    if T < 0:
        raise ValueError("temperature must be nonnegative")
    if T == 0:
        return vacuum_kernel_time(tau)
    alpha = np.pi * T
    x = alpha * tau
    out = np.empty_like(x)
    small = x <= _ASYMPTOTIC_X
    # written as the vacuum kernel times (x/sinh x)^2 so that alpha^2 never
    # underflows out of the quotient at extremely small T
    xs = x[small]
    safe = np.where(xs == 0.0, 1.0, xs)
    ratio = np.where(xs == 0.0, 1.0, safe / np.sinh(safe))
    out[small] = -(ratio**2) / (np.pi * tau[small] ** 2)
    out[~small] = -4.0 * np.pi * T**2 * np.exp(-2.0 * x[~small])
    return float(out) if out.ndim == 0 else out


def free_energy_kernel_time(tau, T):
    """Once-integrated thermal kernel (alpha/2 pi)(1 - coth(alpha tau)).

    This is the unique antiderivative-normalized companion of c_T: it
    vanishes as tau -> infinity and satisfies 2 d/dtau = -c_T, which is
    exactly what the roundtrip series of the free energy consumes.  At
    T = 0 it degenerates to -1/(2 pi tau).
    """
    tau = _check_tau(tau)
    if T < 0:
        raise ValueError("temperature must be nonnegative")
    if T == 0:
        out = -1.0 / (2.0 * np.pi * tau)
        return float(out) if out.ndim == 0 else out
    alpha = np.pi * T
    x = alpha * tau
    out = np.empty_like(x)
    small = x <= 300.0
    if x.min(initial=np.inf) <= 1e-8:
        # down where alpha*tau underflows, alpha/pi loses its digits and x
        # can reach 0: write the kernel as the vacuum one times 2x/expm1(2x)
        tiny = x <= 1e-8
        xt = x[tiny]
        safe = np.where(xt == 0.0, 1.0, xt)
        ratio = np.where(xt == 0.0, 1.0, 2.0 * safe / np.expm1(2.0 * safe))
        out[tiny] = -ratio / (2.0 * np.pi * tau[tiny])
        small = small & ~tiny
    # 1 - coth = -2/(e^{2x} - 1); expm1 keeps small x exact
    out[small] = -(alpha / np.pi) / np.expm1(2.0 * x[small])
    large = x > 300.0
    out[large] = -(alpha / np.pi) * np.exp(-2.0 * x[large])
    return float(out) if out.ndim == 0 else out


def kernel_4d_vacuum(tau):
    """4D vacuum radiation-pressure kernel C(tau) = 6/(pi^2 tau^4)."""
    tau = _check_tau(tau)
    out = 6.0 / (np.pi**2 * tau**4)
    return float(out) if out.ndim == 0 else out


def kernel_4d_thermal(tau, T):
    """4D thermal kernel C_T(tau) = (1/pi^2) d^2/dtau^2 [alpha coth(alpha tau)/tau].

    Expanding the derivative with s = sinh(alpha tau), c = cosh(alpha tau):

        C_T = (2/pi^2) [ alpha^3 c/s^3 / tau + alpha^2/s^2 / tau^2
                         + alpha c/s / tau^3 ]

    All three terms are positive, so the evaluation is cancellation-free.
    Limits: 6/(pi^2 tau^4) as T -> 0 and 2T/(pi tau^3) for T tau >> 1.  For
    alpha tau > 20 the coth/csch factors are replaced by their exponential
    asymptotics, leaving the classical 2 alpha/(pi^2 tau^3) plus an
    e^{-2 alpha tau} correction.
    """
    tau = _check_tau(tau)
    if T < 0:
        raise ValueError("temperature must be nonnegative")
    if T == 0:
        return kernel_4d_vacuum(tau)
    alpha = np.pi * T
    x = alpha * tau
    out = np.empty_like(x)
    small = x <= _ASYMPTOTIC_X
    xs, ts = x[small], tau[small]
    # each term is a power of x/sinh(x) over tau^4, which keeps the
    # evaluation finite however small alpha becomes
    safe = np.where(xs == 0.0, 1.0, xs)
    r = np.where(xs == 0.0, 1.0, safe / np.sinh(safe))
    c = np.cosh(xs)
    out[small] = (2.0 / np.pi**2) * (r**3 * c + r**2 + r * c) / ts**4
    xl, tl = x[~small], tau[~small]
    e = np.exp(-2.0 * xl)
    out[~small] = (2.0 / np.pi**2) * (
        alpha / tl**3
        + e * (4.0 * alpha**3 / tl + 4.0 * alpha**2 / tl**2 + 2.0 * alpha / tl**3)
    )
    return float(out) if out.ndim == 0 else out
