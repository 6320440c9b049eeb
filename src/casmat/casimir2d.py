"""Casimir force, energy and free energy for two mirrors on a line.

Evaluates the radiation pressure on a cavity formed by two partially
transmitting mirrors for a scalar field in one space dimension, in the
independent representations the theory provides: an imaginary-frequency
integral, a sum over time-domain roundtrips, and closed forms in the
frequency-independent (large-distance) regime.  The representations are
mathematically equivalent; computing several of them is the point, since
agreement between unrelated numerical routes is the main correctness
check.

Sign convention: a positive force means attraction (the mirrors are
pulled together).  Natural units, hbar = c = k_B = 1.
"""

import numpy as np
from dataclasses import dataclass, replace

from .quadrature import (QuadratureSpec, IntegrationResult,
                         integrate_semi_infinite, _sum_series, _tol_met)
from .special_functions import polylog, bernoulli, erlang_weight, hypoexp_weight
from .spectral import thermal_kernel_time, free_energy_kernel_time
from .scattering import ModelCapabilityError


@dataclass
class ForceResult:
    """Force between the mirrors together with evaluation metadata.

    ``method`` records which representation produced the number, and
    ``roundtrips_used`` how many terms of the roundtrip series were
    evaluated (None for methods that are not series).
    """
    value: float
    error_estimate: float
    method: str
    roundtrips_used: int = None
    converged: bool = True


@dataclass
class EnergyResult:
    """Cavity energy (or free energy) with evaluation metadata."""
    value: float
    error_estimate: float
    method: str
    kind: str
    converged: bool = True


def _delay_profile(cfg):
    """Classify the mirror pair for the time-domain roundtrip route.

    A roundtrip multiplies the field by the loop reflection; in time it
    convolves the two mirror response kernels with the flight delay.  For
    the supported models the l-fold loop kernel is a nonnegative delay
    density: instantaneous mirrors contribute nothing, each exponential
    (single-resonance) mirror contributes one exponential stage per
    bounce, so l roundtrips give an Erlang density (equal rates) or a
    two-rate hypoexponential (unequal rates).

    Returns
    -------
    weight_for, mean_for : callables or (None, None)
        ``weight_for(l)`` is the delay density for l roundtrips (None when
        both mirrors respond instantaneously and the density is a delta at
        zero delay); ``mean_for(l)`` is its mean, used as the integration
        scale.
    """
    rates = []
    for m in (cfg.mirror1, cfg.mirror2):
        if not m.has_time_kernel:
            raise ModelCapabilityError(
                "time-domain roundtrip evaluation needs a mirror response "
                "kernel in time; %r models do not provide one" % m.kind)
        if m.kind == "lorentzian":
            rates.append(float(m.cutoff))
    if not rates:
        return None, None
    if len(rates) == 1:
        rate = rates[0]
        return (lambda l: (lambda s: erlang_weight(l, rate, s)),
                lambda l: l / rate)
    a, b = rates
    if abs(a - b) <= 1e-12 * max(a, b):
        rate = 0.5 * (a + b)
        return (lambda l: (lambda s: erlang_weight(2 * l, rate, s)),
                lambda l: 2.0 * l / rate)
    return (lambda l: (lambda s: hypoexp_weight(l, a, b, s)),
            lambda l: l / a + l / b)


def _sum_integral_terms(integrand_for, scale_for, spec):
    """Sum a roundtrip series whose l-th term is an integral over (0, inf).

    ``integrand_for(l)`` returns the vectorized l-th integrand and
    ``scale_for(l)`` its decay scale.  Each term is integrated slightly
    tighter than the series budget so the accumulated term errors stay
    inside the caller's tolerance; the result adds those quadrature errors
    to the series error and is converged only if every term integral is.
    """
    inner = replace(spec, rel_tol=0.5 * spec.rel_tol,
                    abs_tol=0.5 * spec.abs_tol)
    quad_err = 0.0
    quad_ok = True

    def term(l):
        nonlocal quad_err, quad_ok
        res = integrate_semi_infinite(integrand_for(l), scale_for(l), inner)
        quad_err += abs(res.error_estimate)
        quad_ok = quad_ok and res.converged
        return res.value

    series = _sum_series(term, spec)
    return IntegrationResult(series.value, series.error_estimate + quad_err,
                             series.evaluations, series.converged and quad_ok)


def _roundtrip_sum(cfg, kernel, spec):
    """Sum the roundtrip series whose l-th term averages kernel(l, tau).

    The average is over the l-roundtrip delay density w_l of
    `_delay_profile`, at tau = 2 l q + s:

        sum_l  int_0^inf ds  w_l(s) kernel(l, 2 l q + s).

    For a perfect pair the density is a delta at s = 0 and the loop
    reflection is (-1)(-1) = 1, so the l-th term is kernel(l, 2 l q).
    """
    q = cfg.q
    weight_for, mean_for = _delay_profile(cfg)
    if weight_for is None:
        return _sum_series(lambda l: kernel(l, 2.0 * l * q), spec)

    def integrand_for(l):
        w = weight_for(l)
        return lambda s: w(s) * kernel(l, 2.0 * l * q + s)

    return _sum_integral_terms(integrand_for, mean_for, spec)


def force_imag_axis(cfg, spec=None):
    """Casimir force from the imaginary-frequency integral (T = 0).

    Rotating the frequency integral onto the imaginary axis turns the
    oscillatory mode-density integrand into the smooth, exponentially
    damped form

        F = 1/(4 pi q^2) * int_0^inf du  u rbar(u/2q) / (e^u - rbar(u/2q)),

    where rbar(xi) is the product of the two mirror reflection amplitudes
    at imaginary frequency i*xi.  This is the workhorse representation:
    one well-behaved quadrature, valid for any mirror model that is known
    on the imaginary axis.

    Parameters
    ----------
    cfg : CavityConfig
        Mirror pair and separation; must have temperature 0.
    spec : QuadratureSpec, optional

    Returns
    -------
    ForceResult
        Positive value means attraction.
    """
    if cfg.temperature != 0.0:
        raise ValueError("the imaginary-axis force integral is a "
                         "zero-temperature representation")
    q = cfg.q
    pref = 1.0 / (4.0 * np.pi * q * q)

    def integrand(u):
        rbar = cfg.loop_r_imag(u / (2.0 * q))
        return pref * u * rbar / (np.expm1(u) + (1.0 - rbar))

    res = integrate_semi_infinite(integrand, 1.0, spec)
    return ForceResult(res.value, res.error_estimate, "imag-axis",
                       None, res.converged)


def force_roundtrip_time(cfg, spec=None):
    """Casimir force as a sum over field roundtrips in the time domain.

    The force is assembled bounce by bounce: the l-th term correlates the
    free-field kernel at lag 2*l*q (plus the mirrors' response delays)
    with the l-fold loop reflection,

        F  =  sum_l  -int_0^inf ds  w_l(s) c_T(2 l q + s),

    where w_l is the delay density from `_delay_profile` and c_T the
    (thermal) two-point kernel.  For a perfect pair the delay integral
    collapses and F = -sum_l c_T(2 l q) exactly.

    Entirely independent of the imaginary-axis route: real time-domain
    kernels, no contour rotation.  Works at any temperature >= 0.
    """
    if spec is None:
        spec = QuadratureSpec()
    T = cfg.temperature
    series = _roundtrip_sum(
        cfg, lambda l, tau: -thermal_kernel_time(tau, T), spec)
    ok = series.converged and _tol_met(series.error_estimate, series.value,
                                       spec)
    return ForceResult(series.value, series.error_estimate, "roundtrip-time",
                       series.evaluations, ok)


def force_large_distance(r0, q, temperature=0.0, spec=None):
    """Force for frequency-independent reflection (the large-distance regime).

    When the loop reflection is a constant r0 over the frequencies that
    matter (separation much larger than the mirror response time), the
    roundtrip series closes: at T = 0 it is polylog(r0, 2)/(4 pi q^2), and
    at T > 0 it is summed from the thermal kernel with the rigorous
    geometric ratio bound |r0| e^{-4 pi T q}.

    Negative r0 gives a repulsive (negative) force.
    """
    if not -1.0 <= r0 <= 1.0:
        raise ValueError("r0 must lie in [-1, 1]")
    if q <= 0.0:
        raise ValueError("separation must be positive")
    if temperature < 0.0:
        raise ValueError("temperature must be nonnegative")
    if r0 == 0.0:
        return ForceResult(0.0, 0.0, "large-distance", None, True)
    if temperature == 0.0:
        value = polylog(r0, 2, tol=1e-12) / (4.0 * np.pi * q * q)
        return ForceResult(value, 1e-12 * abs(value), "large-distance",
                           None, True)
    if spec is None:
        spec = QuadratureSpec()
    rb = abs(r0) * np.exp(-4.0 * np.pi * temperature * q)

    def term(l):
        return -(r0 ** l) * thermal_kernel_time(2.0 * l * q, temperature)

    series = _sum_series(term, spec, ratio_bound=rb)
    ok = series.converged and _tol_met(series.error_estimate, series.value,
                                       spec)
    return ForceResult(series.value, series.error_estimate, "large-distance",
                       series.evaluations, ok)


def mode_sum_oracle_2d(q):
    """Exact perfect-mirror force from the boundary-mode sum.

    Independent of every integral representation in this module: compare
    the zero-point energy of the discrete cavity modes with the continuum
    and apply the Euler-Maclaurin correction.  With a linear dispersion
    only the first Bernoulli term survives, so the result

        F = (B_2 / 2!) * pi / (2 q^2) = pi / (24 q^2)

    is exact, and is returned with zero error estimate.
    """
    if q <= 0.0:
        raise ValueError("separation must be positive")
    coeff = bernoulli(2) / 2  # the only surviving Euler-Maclaurin term
    value = float(coeff) * np.pi / (2.0 * q * q)
    return ForceResult(value, 0.0, "mode-sum-oracle", None, True)


def casimir_energy(cfg, spec=None):
    """Casimir energy U of the cavity at zero temperature.

    Imaginary-axis form of the phase-shift integral:

        U = 1/(2 pi) * int_0^inf dxi  ln(1 - rbar(xi) e^{-2 xi q}).

    Differentiating the integrand in q reproduces the `force_imag_axis`
    integrand exactly, so U and F satisfy F = dU/dq analytically; the
    finite-difference version of that identity is a standard cross-check.
    U < 0 for positive loop reflection.
    """
    if cfg.temperature != 0.0:
        raise ValueError("casimir_energy is the zero-temperature energy; "
                         "use free_energy / internal_energy_thermal at T > 0")
    q = cfg.q

    def integrand(xi):
        x = cfg.loop_r_imag(xi) * np.exp(-2.0 * q * xi)
        if np.any(x >= 1.0):
            raise ValueError("loop reflection reaches 1 on the imaginary "
                             "axis; the log integrand is singular")
        return np.log1p(-x) / (2.0 * np.pi)

    res = integrate_semi_infinite(integrand, 0.5 / q, spec)
    return EnergyResult(res.value, res.error_estimate, "imag-axis",
                        "casimir-energy", res.converged)


def free_energy(cfg, spec=None):
    """Free energy of the cavity field at temperature T > 0.

    Summed over roundtrips with the once-integrated thermal kernel
    k(tau) = (alpha/2 pi)(1 - coth(alpha tau)), alpha = pi T:

        Fcal = sum_l (1/l) * int_0^inf ds w_l(s) k(2 l q + s),

    with the same delay densities as `force_roundtrip_time` (for a
    perfect pair the integral collapses to k(2 l q)/l).
    The additive constant is fixed by Fcal -> 0 as q -> inf, i.e. the
    mirrors decouple.  d(Fcal)/dq reproduces the roundtrip force.

    At very low temperature the terms develop a long 1/l plateau of
    height alpha/(2 pi) that is cut off only near l* ~ 1/(4 alpha q);
    when the series is truncated before l* the uncollected plateau,
    (alpha/2 pi) ln(l*/L), is added to the error estimate.
    """
    if spec is None:
        spec = QuadratureSpec()
    T = cfg.temperature
    if T <= 0.0:
        raise ValueError("free energy requires T > 0; at T = 0 the free "
                         "energy is the Casimir energy")
    alpha = np.pi * T
    series = _roundtrip_sum(
        cfg, lambda l, tau: free_energy_kernel_time(tau, T) / l, spec)
    err = series.error_estimate
    lstar = 1.0 / (4.0 * alpha * cfg.q)
    if lstar > series.evaluations:
        err += (alpha / (2.0 * np.pi)) * np.log(lstar / series.evaluations)
    return EnergyResult(series.value, err, "roundtrip-time", "free-energy",
                        series.converged and _tol_met(err, series.value, spec))


def internal_energy_thermal(cfg, spec=None):
    """Internal energy U = Fcal - T dFcal/dT at temperature T > 0.

    Only the free-energy kernel k_T of `free_energy` depends on T, and

        k_T - T dk_T/dT = tau c_T(tau) / 2

    exactly, with c_T the thermal kernel of `force_roundtrip_time`.  So U
    is one roundtrip series with the same delay densities,

        U = sum_l (1/l) * int_0^inf ds w_l(s) tau c_T(tau) / 2,
        tau = 2 l q + s,

    and its error bar is the series' own.  The terms fall off like 1/l^2
    with no low-temperature plateau.
    """
    if spec is None:
        spec = QuadratureSpec()
    T = cfg.temperature
    if T <= 0.0:
        raise ValueError("internal_energy_thermal requires T > 0; "
                         "at T = 0 use casimir_energy")
    series = _roundtrip_sum(
        cfg, lambda l, tau: 0.5 * tau * thermal_kernel_time(tau, T) / l, spec)
    ok = series.converged and _tol_met(series.error_estimate, series.value,
                                       spec)
    return EnergyResult(series.value, series.error_estimate, "roundtrip-time",
                        "casimir-energy", ok)
