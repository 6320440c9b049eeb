"""Field-fluctuation kernels in the time and frequency domains.

The force and energy engines consume vacuum/thermal two-point kernels
evaluated at roundtrip delays.  In natural units (hbar = c = k_B = 1):

* c(tau)    = -1/(pi tau^2)                    1D vacuum kernel,
* c_T(tau)  = -(alpha^2/pi)/sinh^2(alpha tau)  thermal, alpha = pi T,
* k_T(tau)  = (alpha/2 pi)(1 - coth(alpha tau))  the free-energy kernel,
  normalized to vanish at infinite delay, with 2 dk_T/dtau = -c_T,
* C(tau)    = 6/(pi^2 tau^4)                   4D vacuum kernel,
* C_T(tau)  = (1/pi^2) d^2/dtau^2 [alpha coth(alpha tau)/tau]  4D thermal.

All are pure and vectorized over tau.  Each thermal kernel is one
expression in x/sinh x, x coth x and e^{-x} (x = alpha tau), written in
e^{-x} and expm1(-2x) so that it holds for every x >= 0 without overflow.
"""

import numpy as np

__all__ = [
    "vacuum_kernel_time",
    "thermal_kernel_time",
    "free_energy_kernel_time",
    "kernel_4d_vacuum",
    "kernel_4d_thermal",
]


def _check_tau(tau):
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("kernel requires tau > 0")
    return tau


def _sinh_ratios(x):
    """x/sinh x, x coth x and e^{-x} for x >= 0, none of which overflows.

    With e = e^{-x} and m = 1 - e^{-2x} = -expm1(-2x): x/sinh x = 2 x e/m
    and x coth x = x (1 + e^2)/m.  x is floored at 1e-300 because alpha tau
    underflows to 0 at tiny T; below 1e-8 all three already round to 1.
    """
    x = np.maximum(x, 1e-300)
    e = np.exp(-x)
    m = -np.expm1(-2.0 * x)
    return 2.0 * x * e / m, x * (1.0 + e * e) / m, e


def vacuum_kernel_time(tau):
    """Vacuum field-correlation kernel c(tau) = -1/(pi tau^2)."""
    tau = _check_tau(tau)
    out = -1.0 / (np.pi * tau**2)
    return float(out) if out.ndim == 0 else out


def thermal_kernel_time(tau, T):
    """Thermal kernel c_T(tau) = -(alpha^2/pi)/sinh^2(alpha tau), alpha = pi T.

    Evaluated as the vacuum kernel times (x/sinh x)^2, x = alpha tau, so
    that alpha^2 never underflows out of the quotient at tiny T and the
    exponentially small tail -4 pi T^2 e^{-2x} at large x needs no
    separate branch.  Reduces to the vacuum kernel at T = 0.
    """
    tau = _check_tau(tau)
    if T < 0:
        raise ValueError("temperature must be nonnegative")
    if T == 0:
        return vacuum_kernel_time(tau)
    r, _, _ = _sinh_ratios(np.pi * T * tau)
    out = -(r**2) / (np.pi * tau**2)
    return float(out) if out.ndim == 0 else out


def free_energy_kernel_time(tau, T):
    """Once-integrated thermal kernel (alpha/2 pi)(1 - coth(alpha tau)).

    This is the unique antiderivative-normalized companion of c_T: it
    vanishes as tau -> infinity and satisfies 2 d/dtau = -c_T, which is
    exactly what the roundtrip series of the free energy consumes.  At
    T = 0 it degenerates to -1/(2 pi tau).  For T > 0 it is the vacuum form
    times 2x/expm1(2x) = (x/sinh x) e^{-x}, x = alpha tau; the right-hand
    side is used because expm1(2x) overflows at large x.
    """
    tau = _check_tau(tau)
    if T < 0:
        raise ValueError("temperature must be nonnegative")
    if T == 0:
        out = -1.0 / (2.0 * np.pi * tau)
        return float(out) if out.ndim == 0 else out
    r, _, e = _sinh_ratios(np.pi * T * tau)
    out = -r * e / (2.0 * np.pi * tau)
    return float(out) if out.ndim == 0 else out


def kernel_4d_vacuum(tau):
    """4D vacuum radiation-pressure kernel C(tau) = 6/(pi^2 tau^4)."""
    tau = _check_tau(tau)
    out = 6.0 / (np.pi**2 * tau**4)
    return float(out) if out.ndim == 0 else out


def kernel_4d_thermal(tau, T):
    """4D thermal kernel C_T(tau) = (1/pi^2) d^2/dtau^2 [alpha coth(alpha tau)/tau].

    Expanding the derivative with x = alpha tau, r = x/sinh x and
    xc = x coth x:

        C_T = (2/pi^2) [ (r^2 + 1) xc + r^2 ] / tau^4

    All terms are positive, so the evaluation is cancellation-free, and
    the ratios keep it finite however small or large x becomes.  Limits:
    6/(pi^2 tau^4) as T -> 0 and the classical 2T/(pi tau^3) for
    T tau >> 1.
    """
    tau = _check_tau(tau)
    if T < 0:
        raise ValueError("temperature must be nonnegative")
    if T == 0:
        return kernel_4d_vacuum(tau)
    r, xc, _ = _sinh_ratios(np.pi * T * tau)
    r2 = r**2
    out = (2.0 / np.pi**2) * ((r2 + 1.0) * xc + r2) / tau**4
    return float(out) if out.ndim == 0 else out
