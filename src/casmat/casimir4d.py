"""Casimir pressure and energy between plane mirrors (electromagnetic field).

The plane geometry brings in the transverse wavevector and two field
polarizations.  Everything here uses the normal-wavevector factorization:
the reflection amplitude is the same for both polarizations and depends
on frequency and direction only through the normal wavevector kappa, so
each polarization contributes equally and the transverse integrals
collapse into a single kappa-integral.  Wrap a one-dimensional mirror
model in `PlanarMirrorModel` to state that reading explicitly.

Representations implemented: the imaginary-axis pressure integral, its
roundtrip expansion, closed polylog forms for frequency-independent
reflection (including the thermal series and the classical
high-temperature limit), a Bernoulli mode-sum oracle, and the cavity
energy.  Positive pressure means attraction; natural units throughout.
"""

import numpy as np

from .quadrature import (QuadratureSpec, integrate_semi_infinite, _sum_series,
                         _tol_met)
from .special_functions import polylog, bernoulli
from .spectral import kernel_4d_thermal
from .casimir2d import ForceResult, EnergyResult, _sum_integral_terms


class PlanarMirrorModel:
    """A mirror of the plane geometry, factorized on the normal wavevector.

    Wraps a one-dimensional `MirrorModel`: the plane mirror reflects both
    polarizations with the base model's amplitude evaluated at the normal
    wavevector.  This is exact at zero frequency and normal incidence and
    is adopted here as the modeling choice for all kappa.
    """

    factorization = "normal-wavevector"

    def __init__(self, base):
        self.base = base

    @property
    def kind(self):
        return self.base.kind

    @property
    def cutoff(self):
        return self.base.cutoff

    @property
    def has_time_kernel(self):
        return self.base.has_time_kernel

    def r_imag(self, kappa):
        return self.base.r_imag(kappa)


def pressure_imag_axis(cfg, spec=None):
    """Casimir pressure from the imaginary-axis integral (T = 0).

    Both polarizations summed:

        F = 1/pi^2 * int_0^inf dkappa kappa^3
            rbar(kappa) e^{-2 kappa q} / (1 - rbar(kappa) e^{-2 kappa q}),

    with rbar the loop reflection on the imaginary axis.  Per polarization
    the pressure is half of this.
    """
    if cfg.temperature != 0.0:
        raise ValueError("the imaginary-axis pressure integral is a "
                         "zero-temperature representation")
    q = cfg.q

    def integrand(kappa):
        x = cfg.loop_r_imag(kappa) * np.exp(-2.0 * q * kappa)
        return kappa**3 * x / (1.0 - x) / np.pi**2

    res = integrate_semi_infinite(integrand, 0.5 / q, spec)
    return ForceResult(res.value, res.error_estimate, "imag-axis",
                       None, res.converged)


def pressure_roundtrip(cfg, spec=None):
    """Casimir pressure as the sum over roundtrips (T = 0).

    Expanding the imaginary-axis integrand geometrically gives one
    kappa-integral per roundtrip,

        F = sum_l  1/pi^2 * int_0^inf dkappa kappa^3
                   rbar(kappa)^l e^{-2 l kappa q},

    summed over both polarizations.  Analytically identical to
    `pressure_imag_axis` term by term, but numerically an independent
    route: different integrands, different convergence structure.  For a
    frequency-independent loop the l-th term is exactly r0^l C(2 l q)
    with the vacuum kernel C(tau) = 6/(pi^2 tau^4).
    """
    if cfg.temperature != 0.0:
        raise ValueError("pressure_roundtrip is a zero-temperature route; "
                         "use pressure_thermal_large_distance at T > 0")
    if spec is None:
        spec = QuadratureSpec()
    q = cfg.q

    def integrand_for(l):
        def f(kappa):
            return (kappa**3 * cfg.loop_r_imag(kappa)**l
                    * np.exp(-2.0 * l * kappa * q) / np.pi**2)
        return f

    series = _sum_integral_terms(integrand_for, lambda l: 0.5 / (l * q), spec)
    ok = series.converged and _tol_met(series.error_estimate, series.value,
                                       spec)
    return ForceResult(series.value, series.error_estimate, "roundtrip-time",
                       series.evaluations, ok)


def pressure_large_distance(r0, q, spec=None):
    """Pressure for frequency-independent reflection r0 at T = 0.

    Closed form 3 polylog(r0, 4) / (8 pi^2 q^4); reduces to pi^2/(240 q^4)
    at r0 = 1.
    """
    if not -1.0 <= r0 <= 1.0:
        raise ValueError("r0 must lie in [-1, 1]")
    if q <= 0.0:
        raise ValueError("separation must be positive")
    if r0 == 0.0:
        return ForceResult(0.0, 0.0, "large-distance", None, True)
    value = 3.0 * polylog(r0, 4, tol=1e-12) / (8.0 * np.pi**2 * q**4)
    return ForceResult(value, 1e-12 * abs(value), "large-distance",
                       None, True)


def pressure_thermal_large_distance(r0, q, temperature, spec=None):
    """Thermal pressure for frequency-independent reflection.

    The roundtrip series sum_l r0^l C_T(2 l q) is split into the classical
    part of the thermal kernel, 2 alpha/(pi^2 tau^3) with alpha = pi T,
    whose sum closes to the high-temperature form T polylog(r0, 3)/(4 pi
    q^3), plus a remainder kernel that decays like e^{-4 pi T q} per
    roundtrip and is summed with that geometric bound.  The split makes
    both the T -> 0 and the Tq >> 1 limits exact by construction.
    """
    if q <= 0.0:
        raise ValueError("separation must be positive")
    if temperature < 0.0:
        raise ValueError("temperature must be nonnegative")
    if not (abs(r0) <= 1.0 - 1e-6 or r0 in (1.0, -1.0)):
        raise ValueError("r0 must satisfy |r0| <= 1 - 1e-6 or be exactly "
                         "+-1")
    if temperature == 0.0:
        return pressure_large_distance(r0, q, spec)
    if r0 == 0.0:
        return ForceResult(0.0, 0.0, "large-distance", None, True)
    if spec is None:
        spec = QuadratureSpec()
    alpha = np.pi * temperature
    classical = pressure_high_temperature(r0, q, temperature).value

    def term(l):
        tau = 2.0 * l * q
        rem = kernel_4d_thermal(tau, temperature) - 2.0 * alpha / (np.pi**2 * tau**3)
        return (r0 ** l) * rem

    rb = abs(r0) * np.exp(-4.0 * alpha * q)
    series = _sum_series(term, spec, ratio_bound=rb)
    value = classical + series.value
    err = series.error_estimate + 1e-12 * abs(classical)
    ok = series.converged and _tol_met(err, value, spec)
    return ForceResult(value, err, "large-distance",
                       series.evaluations, ok)


def pressure_high_temperature(r0, q, temperature):
    """Classical high-temperature pressure T polylog(r0, 3) / (4 pi q^3).

    The leading term of the thermal series for Tq >> 1; linear in T and
    independent of hbar (a purely classical expression).
    """
    if not -1.0 <= r0 <= 1.0:
        raise ValueError("r0 must lie in [-1, 1]")
    if q <= 0.0:
        raise ValueError("separation must be positive")
    if temperature < 0.0:
        raise ValueError("temperature must be nonnegative")
    if r0 == 0.0 or temperature == 0.0:
        return ForceResult(0.0, 0.0, "closed-form", None, True)
    value = temperature * polylog(r0, 3, tol=1e-12) / (4.0 * np.pi * q**3)
    return ForceResult(value, 1e-12 * abs(value), "closed-form", None, True)


def mode_sum_oracle_4d(q, per_polarization=False):
    """Exact perfect-mirror pressure from the boundary-mode sum.

    Euler-Maclaurin comparison of discrete cavity modes with the
    continuum, per polarization.  The first Bernoulli term differentiates
    the mode density once and vanishes at the lower edge; the B_4 term
    acts on the cubic part and survives,

        F_p = (B_4 / 4!) (pi^4/q^4) * (-6/(4 pi^2)) = pi^2 / (480 q^4),

    and even derivatives (which would see the divergent bulk constant)
    never enter the correction series, so the cutoff drops out exactly.
    The polarization-summed value is pi^2/(240 q^4).
    """
    if q <= 0.0:
        raise ValueError("separation must be positive")
    coeff = bernoulli(4) * (-6) / 24 / 4  # exact Fraction arithmetic
    value = float(coeff) * np.pi**2 / q**4
    if not per_polarization:
        value *= 2.0
    return ForceResult(value, 0.0, "mode-sum-oracle", None, True)


def energy_4d(cfg, spec=None):
    """Cavity energy at T = 0 for the plane geometry (both polarizations).

        U = 1/(2 pi^2) * int_0^inf dkappa kappa^2
            ln(1 - rbar(kappa) e^{-2 kappa q}).

    d/dq of the integrand reproduces the `pressure_imag_axis` integrand,
    so dU/dq equals the polarization-summed pressure.  For perfect
    mirrors U = -pi^2/(720 q^3), which equals -qF/3 with F the
    perfect-mirror pressure: the integrated-field-energy relation, exact
    in the perfect-reflection limit.
    """
    if cfg.temperature != 0.0:
        raise ValueError("energy_4d is the zero-temperature energy")
    q = cfg.q

    def integrand(kappa):
        x = cfg.loop_r_imag(kappa) * np.exp(-2.0 * q * kappa)
        if np.any(x >= 1.0):
            raise ValueError("loop reflection reaches 1 on the imaginary "
                             "axis; the log integrand is singular")
        return kappa**2 * np.log1p(-x) / (2.0 * np.pi**2)

    res = integrate_semi_infinite(integrand, 0.5 / q, spec)
    return EnergyResult(res.value, res.error_estimate, "imag-axis",
                        "casimir-energy", res.converged)
