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

from .special_functions import bernoulli
from .spectral import kernel_4d_thermal
from .casimir2d import (Result, _check_constant_loop, _closed_form,
                        _imag_axis, _loop_series, _result, _sum_integral_terms)
from .scattering import MirrorModel
# perfbench's tracer wraps these by name on each engine module; this one
# calls them only through casimir2d's helpers
from .quadrature import integrate_semi_infinite, _sum_series  # noqa: F401
from .special_functions import polylog  # noqa: F401


class PlanarMirrorModel(MirrorModel):
    """A mirror of the plane geometry, factorized on the normal wavevector.

    The `MirrorModel` of a one-dimensional model ``base``, with its
    amplitudes on both axes: the plane mirror reflects both polarizations
    with the base amplitude at the normal wavevector.  This is exact at
    zero frequency and normal incidence and is adopted here as the
    modeling choice for all kappa.
    """

    factorization = "normal-wavevector"

    def __init__(self, base):
        super().__init__(base.kind, base._r_real, base._s_real, base._r_imag,
                         base._dlog_r, base.cutoff, base.knots)


def pressure_imag_axis(cfg, spec=None):
    """Casimir pressure from the imaginary-axis integral (T = 0).

    Both polarizations summed:

        F = 1/pi^2 * int_0^inf dkappa kappa^3
            rbar(kappa) e^{-2 kappa q} / (1 - rbar(kappa) e^{-2 kappa q}),

    with rbar the loop reflection on the imaginary axis.  Per polarization
    the pressure is half of this.
    """
    return _imag_axis(cfg, 1.0 / np.pi**2, 3, False, spec)


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
    with the vacuum kernel C(tau) = 6/(pi^2 tau^4).  The terms take real
    l, and for 0 < rbar(0) < 1 they e-fold over -1/ln rbar(0) roundtrips,
    below which Gregory's tail may close the series; lorentzian and
    perfect plates, rbar(0) = 1, take the algebraic tail fit.
    """
    if cfg.temperature != 0.0:
        raise ValueError("pressure_roundtrip is a zero-temperature route; "
                         "use pressure_thermal_large_distance at T > 0")
    q = cfg.q
    # r1 r2 ~ e^{-sigma kappa} at small kappa (sigma = sum_i 1/Omega_i, the
    # lorentzian cutoffs): the l-th integrand is the Gamma(4, l lam) density,
    # lam = 2q + sigma, times C(l lam) rbar^l e^{l sigma kappa}
    sigma = sum(1.0 / m.cutoff for m in (cfg.mirror1, cfg.mirror2)
                if m.kind == "lorentzian")
    lam = 2.0 * q + sigma

    def kernel(l, kappa):
        return (6.0 / (np.pi**2 * (l * lam)**4) * cfg.loop_r_imag(kappa)**l
                * np.exp(l * sigma * kappa))

    def term(l, kappa):
        return (kappa**3 * cfg.loop_r_imag(kappa)**l
                * np.exp(-2.0 * l * kappa * q) / np.pi**2)

    r0 = cfg.loop_r0()
    series = _sum_integral_terms(
        kernel, lambda l: (np.full_like(l, 3), l[:, None] * lam), term, spec,
        -1.0 / np.log(r0) if 0.0 < r0 < 1.0 else None)
    return _result(series, "roundtrip-time", spec)


def pressure_large_distance(r0, q, spec=None):
    """Pressure for frequency-independent reflection r0 at T = 0.

    Closed form 3 polylog(r0, 4) / (8 pi^2 q^4); reduces to pi^2/(240 q^4)
    at r0 = 1.
    """
    _check_constant_loop(r0, q)
    return _closed_form(r0, 4, 3.0, 8.0 * np.pi**2 * q**4, "large-distance")


def pressure_thermal_large_distance(r0, q, temperature, spec=None):
    """Thermal pressure for frequency-independent reflection.

    The roundtrip series sum_l r0^l C_T(2 l q) is split into the classical
    part of the thermal kernel, 2 alpha/(pi^2 tau^3) with alpha = pi T,
    whose sum closes to the high-temperature form T polylog(r0, 3)/(4 pi
    q^3), plus `_loop_series`' sum of the remainder kernel, which decays
    like e^{-4 pi T q} per roundtrip and is bounded by that geometric
    ratio, or closed by Gregory's tail where it is weak; an alternating
    loop, r0 < 0, sums its terms in pairs.
    The split makes both the T -> 0 and the Tq >> 1 limits exact by
    construction.  Every |r0| <= 1 is accepted; the series engine alone
    bounds the result.
    """
    _check_constant_loop(r0, q, temperature)
    if temperature == 0.0 or r0 == 0.0:
        return pressure_large_distance(r0, q, spec)
    alpha = np.pi * temperature
    classical = pressure_high_temperature(r0, q, temperature)

    def remainder(l, tau):
        return (kernel_4d_thermal(tau, temperature)
                - 2.0 * alpha / (np.pi**2 * tau**3))

    series = _loop_series(r0, q, temperature, remainder, spec)
    series.value += classical.value
    series.error_estimate += classical.error_estimate
    return _result(series, "large-distance", spec)


def pressure_high_temperature(r0, q, temperature):
    """Classical high-temperature pressure T polylog(r0, 3) / (4 pi q^3).

    The leading term of the thermal series for Tq >> 1; linear in T and
    independent of hbar (a purely classical expression).
    """
    _check_constant_loop(r0, q, temperature)
    return _closed_form(r0, 3, temperature, 4.0 * np.pi * q**3, "closed-form")


def mode_sum_oracle_4d(q):
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
    _check_constant_loop(0.0, q)
    # both polarizations, in exact Fraction arithmetic
    coeff = bernoulli(4) * (-6) / 24 / 4 * 2
    value = float(coeff) * np.pi**2 / q**4 if q**4 else np.inf
    return Result(value, 0.0, "mode-sum-oracle")


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
    return _imag_axis(cfg, 0.5 / np.pi**2, 2, True, spec)
