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

import functools
import math

import numpy as np
from dataclasses import dataclass, replace

from .quadrature import (QuadratureSpec, IntegrationResult,
                         integrate_semi_infinite, _gauss_beta, _gauss_laguerre,
                         _laguerre_pair, _sum_series, _tol_met, _watson_law)
from .special_functions import polylog, bernoulli, erlang_weight, hypoexp_weight
from .spectral import thermal_kernel_time, free_energy_kernel_time
from .scattering import ModelCapabilityError

# the node counts of the Gauss-Laguerre pair that integrates each term of
# a roundtrip series, and, for a law of one rate or of two, those of the
# Beta rules beside them: one node u = 1/2 for one rate, so 40 nodes a
# term, and the product rules 16 x 8 and 24 x 12 for two
_RULES = (16, 24)
_BETA_RULES = {1: (1, 1), 2: (8, 12)}
# the most fixed-rule nodes of one kernel call: 128 KiB of float64, below
# glibc's mmap threshold, so a call's temporaries are not freshly mapped
_NODES_PER_CALL = 2 ** 14
# the energies' panel edges in u, graded toward their ln u at u = 0
_LOG_EDGES = 2.0 ** -np.arange(1, 41)


@dataclass
class Result:
    """An engine's value, its error bar and how it was obtained.

    ``method`` records which representation produced the number, and
    ``roundtrips_used`` how many terms of the roundtrip series were
    evaluated (None for the imaginary-axis integrals and closed forms).
    """
    value: float
    error_estimate: float
    method: str
    roundtrips_used: int = None
    converged: bool = True

    def __post_init__(self):
        if not np.isfinite([self.value, self.error_estimate]).all():
            raise ValueError("%s: the value or its error bar is not finite"
                             % self.method)


def _result(res, method, spec):
    """The Result of an engine's integral or series res: every engine's exit.

    Converged only if res is and its bar meets spec's tolerances
    (`_tol_met`); roundtrips_used is None for an imag-axis integral.
    """
    ok = res.converged and _tol_met(res.error_estimate, res.value,
                                    spec or QuadratureSpec())
    return Result(res.value, res.error_estimate, method,
                  None if method == "imag-axis" else res.evaluations, ok)


def _closed_form(r0, p, num, den, method):
    """num polylog(r0, p) / den, a closed form of a constant loop r0.

    The polylogarithm is summed to rounding and the bar is 1e-12
    relative.  An exact zero at num = 0, not 0 times a negative sum.
    """
    value = 0.0 if not num else (
        num * polylog(r0, p) / den if den else np.inf)
    return Result(value, 1e-12 * abs(value), method)


@dataclass(frozen=True)
class _LoopLaw:
    """The law of the loop reflection r1 r2, which every roundtrip term reads.

    r0 = rbar(0), 1 for an analytic (perfect or lorentzian) pair; rates,
    the lorentzian cutoffs Omega_i, a table's partner's too.  In time a
    roundtrip convolves the mirror response kernels with the flight delay,
    and an analytic pair's l-fold loop kernel is a nonnegative delay
    density: a perfect mirror adds nothing, a lorentzian one an exponential
    stage per bounce, so l roundtrips give an Erlang density of k l stages
    when the k lorentzian mirrors share one cutoff (one, or two at equal
    cutoffs), and for split cutoffs the law of X / Omega_1 + Y / Omega_2,
    X, Y ~ Gamma(l, 1), which is R (T / Omega_1 + (1 - T) / Omega_2) with
    R ~ Gamma(2 l, 1) and T ~ Beta(l, l) independent (Lukacs 1955), at
    real l >= 1 too.
    """
    r0: float
    rates: tuple = ()
    analytic: bool = True

    def weight(self, l, s):
        """The density of l roundtrips' delay s, elementwise in real l, s."""
        if len(set(self.rates)) == 1:
            return erlang_weight(len(self.rates) * l, self.rates[0], s)
        return hypoexp_weight(l, *self.rates, s)

    def shape(self, l):
        """`weight`'s exact law for `_sum_integral_terms`: alpha = k l - 1
        for k cutoffs, and a rate column per distinct cutoff, in order."""
        return (len(self.rates) * l - 1,
                np.tile(list(dict.fromkeys(self.rates)), (l.size, 1)))

    def tail(self, c, p, q):
        """`_watson_law` of the T = 0 terms c int xi^p rbar^l e^{-2 l q xi};
        None for a table, which has no law to expand."""
        return _watson_law(c, p, q, self.rates) if self.analytic else None

    def efold(self, q, T):
        """1/(2 pi T q - ln r0), the terms' e-folding length in l: inf
        where that gap is not positive (T q underflows at r0 = 1)."""
        if self.r0 > 0.0:  # else None: no e-folding length
            gap = 2.0 * math.pi * T * q - math.log(self.r0)
            return 1.0 / gap if gap > 0.0 else math.inf


def _loop_law(cfg, time_kernel=False):
    """cfg's `_LoopLaw`, the one reader of its mirrors' kinds and cutoffs;
    time_kernel refuses a mirror without a response kernel in time."""
    mirrors = (cfg.mirror1, cfg.mirror2)
    rates = tuple(float(m.cutoff) for m in mirrors if m.kind == "lorentzian")
    for m in mirrors:
        if not m.has_time_kernel:
            if time_kernel:
                raise ModelCapabilityError(
                    "time-domain roundtrip evaluation needs a mirror response "
                    "kernel in time; %r models do not provide one" % m.kind)
            return _LoopLaw(cfg.loop_r0(), rates, False)
    return _LoopLaw(1.0, rates)


@functools.lru_cache(maxsize=64)
def _rule_table(orders, beta_sizes):
    """The product rules of `_fixed_rule_terms` for a tuple of real orders
    a >= 0: Gauss-Laguerre rules `_RULES` of Gamma(a + 1, 1), the coarser
    first, times Beta rules beta_sizes of Beta((a + 1) / 2, (a + 1) / 2)
    (one node, which ignores its parameter, where a < 1), as read-only
    arrays t u, t (1 - u) and w, a row per order and a column per node:
    its Laguerre node t times its Beta node u and times 1 - u, and its
    weight v_0^2 p.  Each distinct order is built once.  64 two-rate
    tables of 32 orders take about 20 MB."""
    rows = {}
    for a in set(orders):
        rules = [(_gauss_laguerre(m, a), _gauss_beta(mb, max(0, a - 1) / 2))
                 for m, mb in zip(_RULES, beta_sizes)]
        rows[a] = [np.concatenate(x) for x in zip(*[
            (np.outer(u, t).ravel(), np.outer(1.0 - u, t).ravel(),
             np.kron(p, v)) for (t, v), (u, p) in rules])]
    table = tuple(np.array([rows[a][i] for a in orders]) for i in range(3))
    for x in table:
        x.flags.writeable = False
    return table


def _fixed_rule_terms(kernel, shape, ells):
    """The terms ells of `_sum_integral_terms` by its fixed rules.

    Returns the finer rule's values and their distances to the coarser
    one's, the kernel's means under its law's normalized weights.  A term
    whose delay is R (T / beta_1 + (1 - T) / beta_2) takes the product of
    the Gauss-Laguerre pair `_RULES` for R and the Beta pair of its number
    of rates in `_BETA_RULES` for T: the nodes
    (t u) / beta_1 + (t (1 - u)) / beta_2, each rate inverted once a term,
    and the weights v_0^2 p.
    A law of one rate is the law of two equal ones, whose T drops out: one
    Beta node u = 1/2 of weight 1.  The terms go in the fewest equal
    chunks of at most `_NODES_PER_CALL` nodes, one kernel call each, with
    a column of ells broadcast against the chunk's rows of nodes; a
    repeated chunk builds no rule (`_rule_table`).
    """
    alpha, beta = shape(ells)
    sizes = _BETA_RULES[beta.shape[1]]
    inv = 1.0 / beta
    cut = _RULES[0] * sizes[0]
    most = _NODES_PER_CALL // (cut + _RULES[1] * sizes[1])
    step = math.ceil(ells.size / math.ceil(ells.size / most))
    value, coarse = np.empty((2, ells.size))
    for k in range(0, ells.size, step):
        rows = slice(k, k + step)
        tu, tv, w = _rule_table(tuple(alpha[rows].tolist()), sizes)
        y = kernel(ells[rows, None],
                   tu * inv[rows, :1] + tv * inv[rows, -1:]) * w
        value[rows], coarse[rows] = y[:, cut:].sum(1), y[:, :cut].sum(1)
    return value, np.abs(value - coarse)


def _sum_integral_terms(kernel, shape, term, spec, efold_length, law_tail,
                        edges=()):
    """Sum a roundtrip series whose l-th term is a kernel's mean over a law.

    ``shape(ells)`` gives the law of each term ells: the real alpha >= 0
    and a column of rates beta > 0, one for Gamma(alpha + 1, beta), two for
    the law of the sum of two independent Gamma((alpha + 1) / 2) delays at
    those rates.  ``kernel(l, x)`` is the l-th kernel at x and
    ``term(l, x)`` the law's density times it, both elementwise in arrays
    l and x that broadcast.  The fixed rules of `_fixed_rule_terms` average the
    kernel, a column of l against 2-D x of at most `_NODES_PER_CALL` nodes
    a call, and never evaluate the density.  The terms whose error misses
    the inner tolerance, or is not finite, go to one lockstep block of
    `integrate_semi_infinite` of term, with the law's mean as decay scale.
    Given edges, the known kinks of term in x (a table's knots), which the
    fixed rules would cross, every term goes to that block, which cuts its
    panels there.  Each term is integrated slightly tighter than the series
    budget so the accumulated term errors stay inside the caller's
    tolerance; the result adds those quadrature errors, summed in term
    order, to the series error and is converged only if every fallback
    integral is.  law_tail and efold_length go to `_sum_series`; the latter
    says that kernel, shape and term take real l, so the rule errors of
    Gregory's tail-integral nodes count in the quadrature errors too, which
    can only widen the bar.
    """
    if spec is None:
        spec = QuadratureSpec()
    inner = replace(spec, rel_tol=0.5 * spec.rel_tol,
                    abs_tol=0.5 * spec.abs_tol)
    quad_errors = []
    quad_ok = True

    def terms(ells):
        nonlocal quad_ok
        value, error = np.empty((2, ells.size))
        redo = np.arange(ells.size)
        if not len(edges):
            value, error = _fixed_rule_terms(kernel, shape, ells)
            redo = np.flatnonzero(~_tol_met(error, value, inner))
        if redo.size:
            alpha, beta = shape(ells[redo])
            mean = (alpha + 1) * (1.0 / beta).mean(axis=1)
            res = integrate_semi_infinite(
                lambda i, x: term(ells[redo][i], x), mean, inner, edges)
            value[redo], error[redo] = res.value, res.error_estimate
            quad_ok = quad_ok and res.converged
        quad_errors.extend(error.tolist())
        return value

    series = _sum_series(terms, spec, None, efold_length, law_tail)
    quad_err = sum(map(abs, quad_errors))
    return IntegrationResult(series.value, series.error_estimate + quad_err,
                             series.evaluations, series.converged and quad_ok)


def _loop_series(r0, q, temperature, kernel, spec, law_tail=None):
    """The `_sum_series` sum of a constant loop r0: every one's series.

    A perfect pair's is r0 = 1, which law_tail closes at T = 0.  The terms
    are r0^l K(l), K(l) = kernel(l, 2 l q) elementwise in l and the delay
    tau, with the a priori ratio bound |r0| e^{-4 pi T q}.  For r0 > 0
    they take real l and e-fold over the `_LoopLaw.efold` of |r0|, below
    which Gregory's tail may close them.  For r0 < 0 they alternate, and
    are summed in pairs, the first step of Euler's transformation (DLMF
    3.9): T_m = r0 (r0^2)^(m-1) K(2m - 1) + (r0^2)^m K(2m), which take
    real m, have the ratio bound r0^2 e^{-8 pi T q} and e-fold over half
    that length in l.  roundtrips_used counts the 2m terms summed.
    """
    rate = 2.0 * math.pi * temperature * q
    efold = _LoopLaw(abs(r0)).efold(q, temperature)
    if r0 > 0.0:
        return _sum_series(lambda l: r0 ** l * kernel(l, 2.0 * l * q), spec,
                           ratio_bound=r0 * math.exp(-2.0 * rate),
                           efold_length=efold, law_tail=law_tail)
    x = r0 * r0

    def pairs(m):
        odd = 2.0 * m - 1.0
        return (r0 * x ** (m - 1) * kernel(odd, 2.0 * odd * q)
                + x ** m * kernel(2.0 * m, 4.0 * m * q))

    series = _sum_series(pairs, spec, ratio_bound=x * math.exp(-4.0 * rate),
                         efold_length=None if efold is None else 0.5 * efold)
    return replace(series, evaluations=2 * series.evaluations)


def _roundtrip_sum(cfg, kernel, spec, closure=None):
    """Sum the roundtrip series whose l-th term averages kernel(l, tau).

    The average is over the l-roundtrip delay density w_l of the pair's
    `_LoopLaw` (`_loop_law`, which refuses a table), at tau = 2 l q + s:

        sum_l  int_0^inf ds  w_l(s) kernel(l, 2 l q + s).

    kernel is elementwise in l and tau: it gets one l per term for a
    perfect pair, whose density is a delta at s = 0 and whose loop
    reflection is (-1)(-1) = 1, so its series is `_loop_series`' r0 = 1,
    term for term that of `force_large_distance` at r0 = 1; and one l per
    quadrature node otherwise.  w_l is exactly the law its shape gives, so
    `_sum_integral_terms` takes the kernel for its rules and w_l times it
    for its fallback, whose nodes alone evaluate the density.  The terms
    take real l and e-fold over the law's `efold`; at T = 0 its `tail` of
    closure = (c, p) closes them.
    """
    q, T, law = cfg.q, cfg.temperature, _loop_law(cfg, time_kernel=True)
    tail = law.tail(*closure, q) if closure and not T else None
    if not law.rates:
        return _loop_series(law.r0, q, T, kernel, spec, tail)
    return _sum_integral_terms(
        lambda l, s: kernel(l, 2.0 * l * q + s), law.shape,
        lambda l, s: law.weight(l, s) * kernel(l, 2.0 * l * q + s), spec,
        law.efold(q, T), tail)


def _imag_axis(cfg, coefficient, power, log_form, spec):
    """The Result of an imaginary-axis observable (T = 0): every one's route.

    Each observable is

        coefficient * int_0^inf dxi  xi^power h(x),   x = rbar(xi) e^{-2 q xi},

    with h(x) = ln(1 - x) when log_form, else x / (1 - x), in u = 2 q xi:
    decay scale 1, damping e^{-u}.  Without panel edges it tries
    `_laguerre_pair` first; on a miss, or with edges (2 q xi_k at the
    knots of a tabulated mirror), it marches with `integrate_semi_infinite`.
    1 - x is formed without cancellation as e^{-u} (expm1(u) + 1 - rbar);
    the log takes log1p(-x) where x < 1/2.  The log form, singular like
    ln u at u = 0 when rbar(0) = 1, also gets the edges 2^-k, k = 1..40,
    graded toward 0, so the march's first round resolves what bisection
    would reach one panel call at a time.
    """
    if cfg.temperature != 0.0:
        raise ValueError("the imaginary-axis integrals are zero-temperature "
                         "representations")
    scale = 2.0 * cfg.q
    c = coefficient / scale**(power + 1) if scale**(power + 1) else np.inf
    if c == np.inf:
        raise ValueError("imag-axis: the prefactor overflows at q = %g" % cfg.q)

    def integrand(u):
        rbar = cfg.loop_r_imag(u / scale)
        gap = np.expm1(u) + (1.0 - rbar)  # e^u (1 - x)
        if gap.min() <= 0.0:
            raise ValueError("loop reflection reaches 1 on the imaginary "
                             "axis; the integrand is singular")
        if log_form:
            x = rbar * np.exp(-u)
            h = np.log1p(-x, out=np.log(gap) - u, where=x < 0.5)
        else:
            h = rbar / gap
        return c * u**power * h

    edges = scale * np.asarray(cfg.knots)
    if log_form:
        edges = np.concatenate((edges, _LOG_EDGES))
    res = None if edges.size else _laguerre_pair(integrand, spec)
    return _result(res or integrate_semi_infinite(integrand, 1.0, spec, edges),
                   "imag-axis", spec)


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
    Result
        Positive value means attraction.
    """
    return _imag_axis(cfg, 1.0 / np.pi, 1, False, spec)


def force_roundtrip_time(cfg, spec=None):
    """Casimir force as a sum over field roundtrips in the time domain.

    The force is assembled bounce by bounce: the l-th term correlates the
    free-field kernel at lag 2*l*q (plus the mirrors' response delays)
    with the l-fold loop reflection,

        F  =  sum_l  -int_0^inf ds  w_l(s) c_T(2 l q + s),

    where w_l is the delay density of `_LoopLaw` and c_T the (thermal)
    two-point kernel; for a perfect pair F = -sum_l c_T(2 l q) exactly.

    Entirely independent of the imaginary-axis route: real time-domain
    kernels, no contour rotation.  Works at any temperature >= 0.  At
    T > 0 it is the Matsubara sum without its n = 0 term, which is
    T/(2q + sum_i 1/Omega_i) over the lorentzian cutoffs Omega_i.
    """
    T = cfg.temperature
    series = _roundtrip_sum(cfg, lambda l, tau: -thermal_kernel_time(tau, T),
                            spec, (1 / np.pi, 1))
    return _result(series, "roundtrip-time", spec)


def _check_constant_loop(r0, q, temperature=0.0):
    """Refuse r0 outside [-1, 1], q outside (0, inf) or T outside [0, inf)."""
    if not -1.0 <= r0 <= 1.0:
        raise ValueError("r0 must lie in [-1, 1]")
    if not 0.0 < q < np.inf:
        raise ValueError("separation must be positive and finite")
    if not 0.0 <= temperature < np.inf:
        raise ValueError("temperature must be finite and nonnegative")


def force_large_distance(r0, q, temperature=0.0, spec=None):
    """Force for frequency-independent reflection (the large-distance regime).

    When the loop reflection is a constant r0 over the frequencies that
    matter (separation much larger than the mirror response time), the
    roundtrip series closes: at T = 0 it is polylog(r0, 2)/(4 pi q^2), and
    at T > 0 it is `_loop_series`' sum of the thermal kernel, bounded by
    the rigorous geometric ratio |r0| e^{-4 pi T q} (r0^2 e^{-8 pi T q}
    on the pairs of terms of an alternating loop, r0 < 0) and closed by
    Gregory's tail where that bound is weak: at r0 = 1, the perfect pair's
    `force_roundtrip_time`, bar for bar.

    Negative r0 gives a repulsive (negative) force.
    """
    _check_constant_loop(r0, q, temperature)
    if temperature == 0.0 or r0 == 0.0:
        return _closed_form(r0, 2, 1.0, 4.0 * np.pi * q * q, "large-distance")
    T = temperature
    series = _loop_series(
        r0, q, T, lambda l, tau: -thermal_kernel_time(tau, T), spec)
    return _result(series, "large-distance", spec)


def mode_sum_oracle_2d(q):
    """Exact perfect-mirror force from the boundary-mode sum.

    Independent of every integral representation in this module: compare
    the zero-point energy of the discrete cavity modes with the continuum
    and apply the Euler-Maclaurin correction.  With a linear dispersion
    only the first Bernoulli term survives, so the result

        F = (B_2 / 2!) * pi / (2 q^2) = pi / (24 q^2)

    is exact, and is returned with zero error estimate.
    """
    _check_constant_loop(0.0, q)
    coeff = bernoulli(2) / 2  # the only surviving Euler-Maclaurin term
    value = float(coeff) * np.pi / (2.0 * q * q) if q * q else np.inf
    return Result(value, 0.0, "mode-sum-oracle")


def casimir_energy(cfg, spec=None):
    """Casimir energy U of the cavity at zero temperature.

    Imaginary-axis form of the phase-shift integral:

        U = 1/(2 pi) * int_0^inf dxi  ln(1 - rbar(xi) e^{-2 xi q}).

    Differentiating the integrand in q reproduces the `force_imag_axis`
    integrand exactly, so U and F satisfy F = dU/dq analytically; the
    finite-difference version of that identity is a standard cross-check.
    U < 0 for positive loop reflection.
    """
    return _imag_axis(cfg, 0.5 / np.pi, 0, True, spec)


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
    height alpha/(2 pi) that is cut off only near l* ~ 1/(4 alpha q).
    Every pair's terms take real l, so its series closes by Gregory's
    formula, whose tail integral collects the plateau; the bar is the
    series' own.  Like the force it omits the n = 0 Matsubara term, which
    diverges here because r1 r2 = 1 at zero frequency.
    """
    T = cfg.temperature
    if T <= 0.0:
        raise ValueError("free energy requires T > 0; at T = 0 the free "
                         "energy is the Casimir energy")
    series = _roundtrip_sum(
        cfg, lambda l, tau: free_energy_kernel_time(tau, T) / l, spec)
    return _result(series, "roundtrip-time", spec)


def internal_energy_thermal(cfg, spec=None):
    """Internal energy U = Fcal - T dFcal/dT at temperature T > 0.

    Only the free-energy kernel k_T of `free_energy` depends on T, and

        k_T - T dk_T/dT = tau c_T(tau) / 2

    exactly, with c_T the thermal kernel of `force_roundtrip_time`.  So U
    is one roundtrip series with the same delay densities,

        U = sum_l (1/l) * int_0^inf ds w_l(s) tau c_T(tau) / 2,
        tau = 2 l q + s,

    and its error bar is the series' own.  The terms fall off like 1/l^2
    with no low-temperature plateau.  The n = 0 Matsubara term, -T/2, is
    omitted, as in the force.
    """
    T = cfg.temperature
    if T <= 0.0:
        raise ValueError("internal_energy_thermal requires T > 0; "
                         "at T = 0 use casimir_energy")
    series = _roundtrip_sum(
        cfg, lambda l, tau: 0.5 * tau * thermal_kernel_time(tau, T) / l, spec)
    return _result(series, "roundtrip-time", spec)
