"""Forces, energies and free energies for the two-mirror line cavity."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.integrate import quad

from casmat import casimir2d, casimir4d, quadrature
from casmat.casimir2d import (casimir_energy, force_imag_axis,
                              force_large_distance, force_roundtrip_time,
                              free_energy, internal_energy_thermal,
                              mode_sum_oracle_2d)
from casmat.quadrature import QuadratureSpec
from casmat.scattering import (CavityConfig, MirrorModel,
                               ModelCapabilityError, lorentzian_mirror,
                               perfect_mirror, tabulated_mirror)
from casmat.spectral import kernel_4d_thermal, thermal_kernel_time

from matsubara_sums import (bernoulli_matsubara_sum,
                            euler_maclaurin_free_energy, matsubara_sum)

ZETA2 = 1.6449340668482264365
PERFECT_FORCE = math.pi / 24.0

# lorentzian pair with cutoff = separation = 1
LORENTZIAN_FORCE = 0.041029967922349898296

# perfect pair at q = 1, T = 0.2
THERMAL_FORCE = 0.051843171479852507083
THERMAL_FREE_ENERGY = -0.018326699828579577933


def _pair(maker, q, T=0.0):
    return CavityConfig(maker(), maker(), q, temperature=T)


def test_perfect_force_imag_axis():
    res = force_imag_axis(_pair(perfect_mirror, 1.0))
    assert res.converged
    assert res.method == "imag-axis"
    assert res.value == pytest.approx(PERFECT_FORCE, rel=1e-12)


def test_lorentzian_force_imag_axis():
    cfg = CavityConfig(lorentzian_mirror(1.0), lorentzian_mirror(1.0), 1.0)
    res = force_imag_axis(cfg)
    assert res.value == pytest.approx(LORENTZIAN_FORCE, rel=1e-11)


def test_mode_sum_oracle_closed_form():
    assert mode_sum_oracle_2d(1.0).value == math.pi / 24.0
    assert mode_sum_oracle_2d(2.0).value == math.pi / 96.0
    assert mode_sum_oracle_2d(1.0).error_estimate == 0.0


def test_roundtrip_representation_perfect():
    res = force_roundtrip_time(_pair(perfect_mirror, 1.0))
    assert res.converged
    assert res.method == "roundtrip-time"
    assert res.roundtrips_used is not None
    assert res.value == pytest.approx(PERFECT_FORCE, rel=1e-12)


def test_roundtrip_representation_lorentzian():
    cfg = CavityConfig(lorentzian_mirror(1.0), lorentzian_mirror(1.0), 1.0)
    res = force_roundtrip_time(cfg)
    ref = force_imag_axis(cfg)
    assert res.value == pytest.approx(ref.value, rel=1e-10)


def test_roundtrip_unequal_cutoffs():
    cfg = CavityConfig(lorentzian_mirror(0.6), lorentzian_mirror(2.4), 1.0)
    res = force_roundtrip_time(cfg)
    ref = force_imag_axis(cfg)
    assert res.value == pytest.approx(ref.value, rel=1e-9)


def test_roundtrip_widely_split_cutoffs():
    # cutoffs two decades apart: nearly every node of the delay density
    # takes its Bessel form
    cfg = CavityConfig(lorentzian_mirror(0.1), lorentzian_mirror(10.0), 1.0)
    res = force_roundtrip_time(cfg)
    ref = force_imag_axis(cfg)
    assert res.converged and ref.converged
    assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate


@pytest.mark.parametrize("cutoff, q", [(1.3, 0.7), (0.5, 2.0), (2.0, 0.4)])
def test_roundtrip_mixed_pair(cutoff, q):
    # one perfect mirror: l roundtrips delay by a single-rate Erlang density
    cfg = CavityConfig(perfect_mirror(), lorentzian_mirror(cutoff), q)
    res = force_roundtrip_time(cfg)
    ref = force_imag_axis(cfg)
    assert res.converged and ref.converged
    assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate


# pairs whose fixed term rules take the l-roundtrip delay density as their
# exact weight: its own gamma law, an Erlang density, for two lorentzian
# mirrors of one cutoff and for one lorentzian mirror, and the product of
# a gamma and a Beta law for split cutoffs
_EXACT_WEIGHT_PAIRS = [pytest.param((0.7, 0.7), id="equal-cutoffs"),
                       pytest.param((None, 1.3), id="one-lorentzian"),
                       pytest.param((0.4, 2.5), id="split-cutoffs"),
                       pytest.param((0.1, 10.0), id="widely-split")]


def _exact_weight_pair(cutoffs, q, T=0.0):
    return CavityConfig(*(perfect_mirror() if w is None
                          else lorentzian_mirror(w) for w in cutoffs), q, T)


@pytest.mark.parametrize("cutoffs", _EXACT_WEIGHT_PAIRS)
def test_exact_weight_terms_evaluate_density_only_at_fallback_nodes(
        monkeypatch, cutoffs):
    # the fixed rules integrate the kernel alone against their normalized
    # weights, so the only density points are the nodes of the adaptive
    # fallback, one each; at q = 0.3 some low orders fall back
    points, evaluations = [], []
    integrate = casimir2d.integrate_semi_infinite
    erlang, hypoexp = casimir2d.erlang_weight, casimir2d.hypoexp_weight

    def counted_integrate(*args, **kwargs):
        res = integrate(*args, **kwargs)
        evaluations.append(res.evaluations)
        return res

    def counted_erlang(ell, rate, s):
        points.append(np.size(s))
        return erlang(ell, rate, s)

    def counted_hypoexp(ell, rate1, rate2, s):
        points.append(np.size(s))
        return hypoexp(ell, rate1, rate2, s)

    monkeypatch.setattr(casimir2d, "integrate_semi_infinite",
                        counted_integrate)
    monkeypatch.setattr(casimir2d, "erlang_weight", counted_erlang)
    monkeypatch.setattr(casimir2d, "hypoexp_weight", counted_hypoexp)
    q = 0.3
    runs = [force_roundtrip_time(_exact_weight_pair(cutoffs, q))]
    cfg = _exact_weight_pair(cutoffs, q, 0.1 / q)
    runs += [engine(cfg) for engine in (force_roundtrip_time, free_energy,
                                        internal_energy_thermal)]
    assert all(res.converged for res in runs)
    assert evaluations and sum(points) == sum(evaluations) > 0


@pytest.mark.parametrize("cutoffs", _EXACT_WEIGHT_PAIRS)
def test_exact_weight_force_meets_imag_axis(cutoffs):
    cfg = _exact_weight_pair(cutoffs, 0.3)
    res, ref = force_roundtrip_time(cfg), force_imag_axis(cfg)
    assert res.converged and ref.converged
    assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate


# a known bar miss: at q = 0.3, T q = 1 the thermal kernel falls off within
# 1/(2 pi T) = 0.05 of s = 0, inside the first nodes of the rules fitted to
# the two-roundtrip weight s^3 e^{-0.7 s}; both rules miss that term (4e-17
# for 1.9e-15), agree with each other and pass the absolute tolerance, so
# the bar comes out 13-15 times short; the split pair (0.4, 2.5) misses
# there in all three routes
_NARROW_KERNEL = pytest.mark.xfail(strict=True, reason=(
    "fixed-rule error estimate of a kernel narrower than the rule's nodes"))
_NARROW_KERNEL_CASES = [((0.7, 0.7), force_roundtrip_time),
                        ((0.7, 0.7), internal_energy_thermal),
                        ((0.4, 2.5), force_roundtrip_time),
                        ((0.4, 2.5), free_energy),
                        ((0.4, 2.5), internal_energy_thermal)]


@pytest.mark.parametrize("cutoffs", _EXACT_WEIGHT_PAIRS)
@pytest.mark.parametrize("q", [0.3, 1.0])
@pytest.mark.parametrize("tq", [1e-2, 0.1, 1.0])
@pytest.mark.parametrize("engine, observable", [
    pytest.param(force_roundtrip_time, "force", id="force"),
    pytest.param(free_energy, "free energy", id="free-energy"),
    pytest.param(internal_energy_thermal, "internal energy",
                 id="internal-energy")])
def test_exact_weight_thermal_routes_meet_matsubara_sums(
        request, engine, observable, tq, q, cutoffs):
    if (q, tq) == (0.3, 1.0) and (cutoffs, engine) in _NARROW_KERNEL_CASES:
        request.applymarker(_NARROW_KERNEL)
    cfg = _exact_weight_pair(cutoffs, q, tq / q)
    res = engine(cfg)
    ref, bar = matsubara_sum(observable, cfg)
    assert res.converged
    assert abs(res.value - ref) <= res.error_estimate + bar


def test_roundtrip_needs_time_kernel():
    # a table has no response kernel in time: every time-domain engine
    # refuses it, facing a table, a lorentzian or a perfect mirror, at
    # T = 0 and T > 0, with one message
    xi = np.geomspace(1e-3, 1e3, 100)
    tab = tabulated_mirror(xi, -1.0 / (1.0 + xi))
    message = ("time-domain roundtrip evaluation needs a mirror response "
               "kernel in time; 'tabulated' models do not provide one")
    for other in (tab, lorentzian_mirror(1.0), perfect_mirror()):
        with pytest.raises(ModelCapabilityError) as info:
            force_roundtrip_time(CavityConfig(tab, other, 1.0))
        assert str(info.value) == message
        for engine in (force_roundtrip_time, free_energy,
                       internal_energy_thermal):
            cfg = CavityConfig(tab, other, 1.0, temperature=0.3)
            with pytest.raises(ModelCapabilityError) as info:
                engine(cfg)
            assert str(info.value) == message


def test_loop_law_reads_each_pair_once():
    # the loop-law record of every pair: the lorentzian cutoffs in mirror
    # order, a table's partner's too, since the 4D pressure's Gamma(4, l
    # lam) law takes them in lam; r0 = 1 for perfect and lorentzian pairs
    # without a loop reflection read, and a table's own rbar(0)
    xi = np.geomspace(1e-3, 1e3, 100)
    tab, lor = tabulated_mirror(xi, -1.0 / (1.0 + xi)), lorentzian_mirror(1.3)
    for cutoffs in [(None, None), (0.7, None), (0.4, 2.5), (2.5, 0.4),
                    (0.7, 0.7)]:
        cfg = _exact_weight_pair(cutoffs, 1.0)
        cfg.loop_r_imag = None  # a read would raise a TypeError
        rates = tuple(w for w in cutoffs if w is not None)
        assert casimir2d._loop_law(cfg) == casimir2d._LoopLaw(1.0, rates)
    for pair, rates in [((lor, tab), (1.3,)), ((tab, lor), (1.3,)),
                        ((perfect_mirror(), tab), ()), ((tab, tab), ())]:
        cfg = CavityConfig(*pair, 1.0)
        law = casimir2d._loop_law(cfg)
        assert law == casimir2d._LoopLaw(cfg.loop_r0(), rates, False)
        assert law.tail(1.0, 1, 1.0) is None
    # the e-folding length: none for r0 <= 0, for ever where 2 pi T q
    # underflows at r0 = 1 (or T = 0), else 1 / (2 pi T q - ln r0)
    assert casimir2d._LoopLaw(0.0).efold(1.0, 0.3) is None
    assert casimir2d._LoopLaw(-0.8).efold(1.0, 0.3) is None
    assert casimir2d._LoopLaw(1.0).efold(1e-200, 1e-200) == math.inf
    assert casimir2d._LoopLaw(1.0).efold(1.0, 0.0) == math.inf
    for r0, q, T in [(1.0, 0.7, 0.01), (0.9, 1.0, 0.0), (0.5, 3.0, 1e-4)]:
        assert casimir2d._LoopLaw(r0).efold(q, T) == (
            1.0 / (2.0 * math.pi * T * q - math.log(r0)))


# the four imaginary-axis observables as prefactor * int dxi xi^p h(x),
# x = rbar(xi) e^{-2 q xi}: (engine, planar, prefactor, p, log form)
_IMAG_AXIS = [
    (force_imag_axis, False, 1.0 / math.pi, 1, False),
    (casimir_energy, False, 0.5 / math.pi, 0, True),
    (casimir4d.pressure_imag_axis, True, 1.0 / math.pi**2, 3, False),
    (casimir4d.energy_4d, True, 0.5 / math.pi**2, 2, True),
]


def _perfect_pair(planar, q, T=0.0):
    wrap = casimir4d.PlanarMirrorModel if planar else (lambda m: m)
    return CavityConfig(wrap(perfect_mirror()), wrap(perfect_mirror()), q,
                        temperature=T)


def _meets_its_bar(engine, planar, pref, power, log_form, m1, m2, q=1.0,
                   knots=np.array([])):
    # the reference integrates the same loop reflection, knot to knot, with
    # QUADPACK up to 2 q xi = 80 where x < e^-80, with
    # 1 - x = (1 - rbar) - rbar expm1(-2 q xi)
    end = 40.0 / q

    def h(xi):
        rbar = float(m1.r_imag(xi) * m2.r_imag(xi))
        x = rbar * math.exp(-2.0 * q * xi)
        gap = (1.0 - rbar) - rbar * math.expm1(-2.0 * q * xi)
        if log_form:
            return xi**power * (math.log1p(-x) if x < 0.5 else math.log(gap))
        return xi**power * x / gap

    pieces = np.concatenate(([0.0], knots[knots < end], [end]))
    parts = [quad(h, a, b, epsabs=1e-17, epsrel=1e-13)
             for a, b in zip(pieces[:-1], pieces[1:])]
    ref = pref * math.fsum(p[0] for p in parts)
    ref_err = pref * sum(p[1] for p in parts)
    wrap = casimir4d.PlanarMirrorModel if planar else (lambda m: m)
    res = engine(CavityConfig(wrap(m1), wrap(m2), q))
    assert res.converged
    assert abs(res.value - ref) <= res.error_estimate + ref_err


def _meets_its_bar_tabulated(engine, planar, pref, power, log_form, xs):
    # a single-pole table r = -1/(1 + xi) at q = 1
    tab = tabulated_mirror(xs, -1.0 / (1.0 + xs))
    _meets_its_bar(engine, planar, pref, power, log_form, tab, tab,
                   knots=xs)


@pytest.mark.parametrize("engine, planar, pref, power, log_form", _IMAG_AXIS)
def test_tabulated_observables_meet_their_bars(engine, planar, pref, power,
                                                log_form):
    # below the first knot, 1e-6, the held sample bends the integrand
    # within a layer no Gauss node saw before the knots became panel edges
    # (force2d was 7.5e-7 relative off against a bar of 4e-11)
    _meets_its_bar_tabulated(engine, planar, pref, power, log_form,
                             np.geomspace(1e-6, 1e4, 400))


@pytest.mark.parametrize("engine, planar, pref, power, log_form", _IMAG_AXIS)
def test_imag_axis_observables_reach_a_perfect_first_sample(
        engine, planar, pref, power, log_form):
    # r = -1 at the first knot, 1e-17: there x = r^2 e^{-2 q xi} rounds to
    # 1 unless 1 - x is formed as (1 - rbar) - rbar expm1(-u), though the
    # integrals are finite
    _meets_its_bar_tabulated(engine, planar, pref, power, log_form,
                             np.geomspace(1e-17, 1e4, 300))


@pytest.mark.parametrize("mirrors", [
    (perfect_mirror(), perfect_mirror()),
    (lorentzian_mirror(0.7), lorentzian_mirror(2.3))])
@pytest.mark.parametrize("engine, planar, pref, power, log_form", _IMAG_AXIS)
def test_imag_axis_observables_take_few_panel_calls(
        monkeypatch, engine, planar, pref, power, log_form, mirrors):
    # ln(1 - x) is singular like ln u at u = 0 when rbar(0) = 1.  The
    # energies' panel edges 2^-k graded toward 0 resolve it in the march's
    # first round, where bisection would take one panel call per halving.
    # The smooth force and pressure get no such edges and take as few calls
    calls = []
    panel = quadrature._panel
    monkeypatch.setattr(quadrature, "_panel",
                        lambda *args: calls.append(1) or panel(*args))
    _meets_its_bar(engine, planar, pref, power, log_form, *mirrors, q=1.3)
    assert len(calls) <= 4


def _spy_imag_axis(monkeypatch):
    # the (integrand, result or None) of every Gauss-Laguerre pair the
    # imaginary-axis routes try, and the integral each turns into a Result
    tried, integrals = [], []
    pair, result = casimir2d._laguerre_pair, casimir2d._result

    def spy_pair(f, spec):
        tried.append((f, pair(f, spec)))
        return tried[-1][1]

    def spy_result(res, method, spec):
        integrals.append(res)
        return result(res, method, spec)

    monkeypatch.setattr(casimir2d, "_laguerre_pair", spy_pair)
    monkeypatch.setattr(casimir2d, "_result", spy_result)
    return tried, integrals


# the force and the pressure, the routes whose integrals have no edges
# unless a mirror is tabulated: (engine, planar)
_PAIR_ROUTES = [(force_imag_axis, False),
                (casimir4d.pressure_imag_axis, True)]


def _planar(planar):
    return casimir4d.PlanarMirrorModel if planar else (lambda m: m)


def test_laguerre_pair_values_lie_within_the_bars_of_a_tight_march(
        monkeypatch):
    # a derandomized grid, the first 500 points of the R_3 sequence
    # (Roberts 2018) in the unit cube: q log-uniform in [1e-2, 1e3], the
    # cutoffs in [0.1, 10], one pair in three equal and one in ten
    # perfect, each in 1D and 4D.  Every integral the pair accepts lies
    # within its bar plus that of a march at rel_tol 1e-14, with no ulp
    # floor, and its bar is not loose beyond reason
    tried, integrals = _spy_imag_axis(monkeypatch)
    g = 1.2207440846057596  # the root of g^4 = g + 1
    grid = (np.arange(1, 501)[:, None] / g ** np.arange(1, 4)) % 1.0
    for k, (x, y, z) in enumerate(grid):
        q = 10.0 ** (5.0 * x - 2.0)
        w1, w2 = 10.0 ** (2.0 * y - 1.0), 10.0 ** (2.0 * z - 1.0)
        mirrors = ((perfect_mirror(), perfect_mirror()) if k % 10 == 0 else
                   (lorentzian_mirror(w1),
                    lorentzian_mirror(w1 if k % 3 == 0 else w2)))
        for engine, planar in _PAIR_ROUTES:
            engine(CavityConfig(*map(_planar(planar), mirrors), q))
    tight = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300)
    accepted = [(res, quadrature.integrate_semi_infinite(f, 1.0, tight))
                for f, res in tried if res is not None]
    assert len(tried) == len(integrals) == 1000
    assert len(accepted) >= 700
    ratios = []
    for res, ref in accepted:
        assert ref.converged
        error = abs(res.value - ref.value)
        assert error <= res.error_estimate + ref.error_estimate
        ratios.append(res.error_estimate / error if error else math.inf)
    assert np.median(ratios) <= 1000.0


@pytest.mark.parametrize("engine, planar, pref, power, log_form", _IMAG_AXIS)
def test_tabulated_mirrors_and_energies_march(monkeypatch, engine, planar,
                                              pref, power, log_form):
    # panel edges, a table's knots or the energies' log edges, send an
    # integral straight to the march: 22 evaluations a panel, never 80
    tried, integrals = _spy_imag_axis(monkeypatch)
    xs = np.geomspace(1e-6, 1e4, 400)
    table = tabulated_mirror(xs, -1.0 / (1.0 + xs))
    pairs = [(table, table)]
    if log_form:
        pairs += [(perfect_mirror(), perfect_mirror()),
                  (lorentzian_mirror(0.7), lorentzian_mirror(2.3))]
    for mirrors in pairs:
        assert engine(CavityConfig(*map(_planar(planar), mirrors),
                                   1.3)).converged
    assert tried == []
    assert len(integrals) == len(pairs)
    for res in integrals:
        assert res.evaluations % 22 == 0 and res.evaluations != 80


@pytest.mark.parametrize("engine, planar", _PAIR_ROUTES)
def test_a_pair_miss_returns_the_march_bit_for_bit(monkeypatch, engine,
                                                   planar):
    # at 2 q Omega = 2e-3 the integrand bends far below the pair's first
    # node, about 0.03, and the two rules disagree
    tried, integrals = _spy_imag_axis(monkeypatch)
    mirror = _planar(planar)(lorentzian_mirror(0.1))
    res = engine(CavityConfig(mirror, mirror, 0.01))
    (f, pair), = tried
    march = quadrature.integrate_semi_infinite(f, 1.0)
    assert pair is None
    assert integrals == [march]
    assert march.evaluations % 22 == 0 and march.converged
    assert (res.value, res.error_estimate) == (march.value,
                                               march.error_estimate)


@pytest.mark.parametrize("engine, planar", _PAIR_ROUTES)
def test_an_accepted_pair_reports_80_evaluations(monkeypatch, engine,
                                                 planar):
    tried, integrals = _spy_imag_axis(monkeypatch)
    res = engine(_perfect_pair(planar, 1.0))
    assert [pair for _, pair in tried] == integrals
    assert [(r.evaluations, r.converged) for r in integrals] == [(80, True)]
    assert res.converged
    closed = math.pi / 24.0 if not planar else math.pi**2 / 240.0
    assert res.value == pytest.approx(closed, rel=1e-13)


@pytest.mark.parametrize("engine, planar, q", [
    (force_imag_axis, False, 1e-60), (force_imag_axis, False, 1e-153),
    (force_imag_axis, False, 1e-154),
    (casimir4d.pressure_imag_axis, True, 1e-60),
    (casimir4d.pressure_imag_axis, True, 1e-76)])
def test_pair_routes_at_tiny_q_end_finite_or_refused(engine, planar, q):
    # the prefactor 1 / (2q)^(p + 1) is finite at these q, but the
    # integral may pass the float range: then Result refuses it, and
    # neither the pair nor the march raises a RuntimeWarning (an error
    # under the suite's filterwarnings)
    for mirrors in ((perfect_mirror(), perfect_mirror()),
                    (lorentzian_mirror(1.0), lorentzian_mirror(3.0))):
        cfg = CavityConfig(*map(_planar(planar), mirrors), q)
        try:
            res = engine(cfg)
        except ValueError as err:
            assert "is not finite" in str(err)
        else:
            assert np.isfinite([res.value, res.error_estimate]).all()


def test_roundtrip_cap_is_honest():
    cfg = CavityConfig(lorentzian_mirror(1.0), lorentzian_mirror(1.0), 1.0)
    res = force_roundtrip_time(cfg, QuadratureSpec(max_roundtrips=4))
    assert not res.converged
    assert res.roundtrips_used == 4


@pytest.mark.parametrize("tq, used, converged", [
    (1e-4, 64, True), (0.0036, 512, True), (0.2, 64, True)])
def test_perfect_thermal_series_term_counts(tq, used, converged):
    # T q = 1e-4: Gregory's closure at l = 64 (an e-folding length of
    # 1/(2 pi T q) = 1592 terms); T q = 0.0036: past that length, by the
    # observed ratio
    res = force_roundtrip_time(_pair(perfect_mirror, 1.0, T=tq))
    assert res.roundtrips_used == used
    assert res.converged is converged


def test_large_distance_series_term_count():
    # the a priori exit is met at l = 127 and tested at the checkpoint
    # l = 128, which keeps all the terms of its block
    res = force_large_distance(0.9052, 2.2387, temperature=0.0037 / 2.2387)
    assert res.converged
    assert res.roundtrips_used == 128


def test_perfect_series_calls_kernel_once_per_block(monkeypatch):
    sizes, panels = [], []
    kernel, panel = casimir2d.thermal_kernel_time, quadrature._panel

    def counted(tau, T):
        sizes.append(np.size(tau))
        return kernel(tau, T)

    monkeypatch.setattr(casimir2d, "thermal_kernel_time", counted)
    monkeypatch.setattr(quadrature, "_panel",
                        lambda *args: panels.append(len(args[1]))
                        or panel(*args))
    res = force_roundtrip_time(_pair(perfect_mirror, 1.0, T=1e-4))
    assert res.converged and res.roundtrips_used == 64
    # one call for the block 1..64, one per round of the lockstep block of
    # both tail integrals (22 nodes a panel), one for t_65..t_69
    assert sizes == [64] + [22 * n for n in panels] + [5]
    assert len(panels) <= 8


def _spy_blocks_and_densities(monkeypatch):
    """Record the series blocks, the hypoexponential density calls and the
    evaluations of the adaptive fallback."""
    blocks, calls, evaluations = [], [], []
    sum_series, weight = casimir2d._sum_series, casimir2d.hypoexp_weight
    integrate = casimir2d.integrate_semi_infinite

    def counted_series(terms, *args, **kwargs):
        def counted_terms(ells):
            blocks.append(ells.size)
            return terms(ells)
        return sum_series(counted_terms, *args, **kwargs)

    def counted_weight(ell, rate1, rate2, s):
        calls.append((np.unique(ell).tolist(), np.size(s)))
        return weight(ell, rate1, rate2, s)

    def counted_integrate(*args, **kwargs):
        res = integrate(*args, **kwargs)
        evaluations.append(res.evaluations)
        return res

    monkeypatch.setattr(casimir2d, "_sum_series", counted_series)
    monkeypatch.setattr(casimir2d, "hypoexp_weight", counted_weight)
    monkeypatch.setattr(casimir2d, "integrate_semi_infinite",
                        counted_integrate)
    return blocks, calls, evaluations


def test_split_cutoff_series_shares_density_calls_per_block(monkeypatch):
    # the product rules evaluate no density; the density is called only
    # on the nodes of the adaptive fallback, once per march round or
    # bisection sweep of a block's fallback terms, not per term (one term
    # at a time, a block of 64 makes about 170 calls); Watson's closure
    # ends the series at l = 64 (the 1/l^k tail fit took 128 terms)
    blocks, calls, evaluations = _spy_blocks_and_densities(monkeypatch)
    cfg = CavityConfig(lorentzian_mirror(0.3), lorentzian_mirror(3.0), 0.2)
    res = force_roundtrip_time(cfg)
    assert res.converged
    assert blocks == [64] and res.roundtrips_used == 64
    assert sum(size for _, size in calls) == sum(evaluations) > 0
    assert len(calls) <= 16 * len(blocks)


def test_widely_split_low_orders_fall_back(monkeypatch):
    # at cutoffs two decades apart the one- and two-roundtrip delays, a
    # fast rise and then a slow exponential decay, spread the kernel over
    # too wide a range of the Beta nodes: the product rules disagree and
    # those terms go to the adaptive integrator, the only caller of the
    # density; Watson's closure ends the series at l = 64 (the 1/l^k tail
    # fit took 128 terms)
    _, calls, evaluations = _spy_blocks_and_densities(monkeypatch)
    cfg = CavityConfig(lorentzian_mirror(0.1), lorentzian_mirror(10.0), 1.0)
    res = force_roundtrip_time(cfg)
    assert res.converged and res.roundtrips_used == 64
    assert sum(size for _, size in calls) == sum(evaluations)
    fallback = set().union(*(ells for ells, _ in calls))
    assert {1, 2} <= fallback and max(fallback) < 64


def _split_term(ell, q, a, b):
    """The l-th term of the T = 0 roundtrip force of a lorentzian pair (a, b)
    to 30 digits, from its Laplace form: with 1/tau^2 = int u e^{-u tau} du
    and the delay's Laplace transform (a/(a + u))^l (b/(b + u))^l,

        t_l = (1/pi) int_0^inf du  u e^{-2 l q u} (a/(a + u))^l (b/(b + u))^l,

    integrated in v = lam u, lam = 2 l q + l (1/a + 1/b)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, b, q = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(q)
        lam = 2 * ell * q + ell * (1 / a + 1 / b)

        def f(v):
            u = v / lam
            return (u * mpmath.exp(-2 * ell * q * u) * (a / (a + u)) ** ell
                    * (b / (b + u)) ** ell / lam)

        return float(mpmath.quad(f, [0, 1, 4, 16, 64, 256, mpmath.inf])
                     / mpmath.pi)


@pytest.mark.parametrize("a, b", [(0.1, 10.0), (0.53, 2.47), (0.36, 0.3601)])
@pytest.mark.parametrize("q", [0.1, 1.0, 100.0, 1000.0])
def test_split_pair_terms_meet_their_bars(a, b, q):
    # the product rules of split cutoffs on the force's terms: every term
    # they accept (its bar within the inner tolerance) lies within its bar
    # of the 30-digit reference, plus 8 ulp for the rounding of the nodes'
    # weights, which sum to 1 only to a few ulp; the law is the pair's
    # loop-law record, its two cutoffs in mirror order
    law = casimir2d._loop_law(
        CavityConfig(lorentzian_mirror(a), lorentzian_mirror(b), q))
    assert law.rates == (a, b) and law.r0 == 1.0 and law.analytic
    ells = np.array([1, 2, 8, 64])
    value, error = casimir2d._fixed_rule_terms(
        lambda l, s: -thermal_kernel_time(2.0 * l * q + s, 0.0), law.shape,
        ells)
    inner = QuadratureSpec(rel_tol=0.5e-9, abs_tol=0.5e-14)
    accepted = quadrature._tol_met(error, value, inner)
    assert accepted[-1]
    for ell, v, e, ok in zip(ells.tolist(), value, error, accepted):
        ref = _split_term(ell, q, a, b)
        assert not ok or abs(v - ref) <= e + 8 * np.finfo(float).eps * abs(ref)


@pytest.mark.parametrize("orders, rates", [
    ((3,) * 64, 1),
    (tuple(range(1, 128, 2)), 2),
    (tuple(range(129, 256, 2)), 2),
], ids=["pressure", "split-pair", "beta"])
def test_stacked_rule_tables_are_cached_read_only(orders, rates):
    # a chunk's table depends on its orders and number of rates alone: the
    # cached arrays are a fresh build's, bit for bit, and cannot be
    # written; each block of a product rule holds the Laguerre nodes t_i
    # times the Beta nodes u_j and times 1 - u_j, and the weights p_j v_i,
    # and a one-rate row has one Beta node, u = 1/2 of weight 1, so it
    # holds t_i / 2 twice
    sizes = casimir2d._BETA_RULES[rates]
    cached = casimir2d._rule_table(orders, sizes)
    assert casimir2d._rule_table(orders, sizes) is cached
    fresh = casimir2d._rule_table.__wrapped__(orders, sizes)
    nodes = sum(m * mb for m, mb in zip(casimir2d._RULES, sizes))
    for x, y in zip(cached, fresh):
        assert x.shape == (len(orders), nodes)
        assert x.tobytes() == y.tobytes()
        with pytest.raises(ValueError):
            x[0, 0] = 1.0
    tu, tv, w = cached
    for row, a in enumerate(orders):
        start = 0
        for m, mb in zip(casimir2d._RULES, sizes):
            lag, v = quadrature._gauss_laguerre(m, a)
            beta, p = quadrature._gauss_beta(mb, (a - 1) // 2)
            block = slice(start, start + m * mb)
            assert (tu[row, block].reshape(mb, m)
                    == lag * beta[:, None]).all()
            assert (tv[row, block].reshape(mb, m)
                    == lag * (1.0 - beta[:, None])).all()
            assert (w[row, block].reshape(mb, m) == np.outer(p, v)).all()
            if rates == 1:
                assert (tu[row, block] == lag / 2).all()
                assert (tv[row, block] == lag / 2).all()
            start += m * mb
    if rates == 1:
        assert nodes == sum(casimir2d._RULES) and (tu == tv).all()
        one = quadrature._gauss_beta(1, (orders[0] - 1) // 2)
        assert [x.tolist() for x in one] == [[0.5], [1.0]]


@pytest.mark.parametrize("q", [0.01, 0.4, 5.0, 300.0])
@pytest.mark.parametrize("k, rate", [(1, 0.05), (1, 0.7), (2, 0.7), (2, 23.0)])
def test_one_rate_terms_are_the_equal_rate_product_rule(k, rate, q):
    # a law of one rate takes one Beta node, u = 1/2, beside its Laguerre
    # nodes; the force's terms and bars by that rule lie within 8 ulp of
    # those of the full 16 x 8 and 24 x 12 product rules at beta_1 =
    # beta_2 (at most 3.2 ulp seen; up to 9.1 at k = 1, where the Beta
    # parameter is a half-integer, before the Beta weights were divided by
    # their exact sum)
    def kernel(l, s):
        return -thermal_kernel_time(2.0 * l * q + s, 0.0)

    ells = np.arange(1, 65)
    value, error = casimir2d._fixed_rule_terms(
        kernel, lambda l: (k * l - 1, np.full((l.size, 1), rate)), ells)
    full, full_error = casimir2d._fixed_rule_terms(
        kernel, lambda l: (k * l - 1, np.full((l.size, 2), rate)), ells)
    ulps = 8 * np.finfo(float).eps * np.abs(full)
    assert (np.abs(value - full) <= ulps).all()
    assert (np.abs(error - full_error) <= ulps).all()


def _assert_term_by_term(kernel, shape, ells, value, error):
    # the values and bars of a block are those of its terms taken one at
    # a time, bit for bit
    alone = [casimir2d._fixed_rule_terms(kernel, shape, ells[k:k + 1])
             for k in range(ells.size)]
    assert value.tobytes() == np.concatenate([v for v, _ in alone]).tobytes()
    assert error.tobytes() == np.concatenate([e for _, e in alone]).tobytes()


def _spied_kernel(q, calls):
    # the force's kernel at T = 0, recording the shapes of each call's l
    # and nodes
    def kernel(l, s):
        calls.append((l.shape, s.shape))
        return -thermal_kernel_time(2.0 * l * q + s, 0.0)
    return kernel


@pytest.mark.parametrize("rates", [(0.53, 2.47), (0.7,), (1.1, 1.1001)])
@pytest.mark.parametrize("first, last", [(1, 64), (129, 256)])
def test_rule_chunks_keep_the_node_budget_and_every_bit(rates, first, last):
    # a block of terms goes to the kernel in the fewest equal chunks of at
    # most 2^14 nodes, each a column of l against its rows of nodes: a
    # split block of 64 terms (416 nodes each) in 2 chunks of 32, one of
    # 128 in 4, a one-rate block (40 nodes each) in one call; the values
    # and bars are those of the terms taken one at a time, bit for bit
    law = casimir2d._LoopLaw(1.0, rates)
    ells = np.arange(first, last + 1)
    calls = []
    value, error = casimir2d._fixed_rule_terms(
        _spied_kernel(0.4, calls), law.shape, ells)
    nodes = 40 if len(set(rates)) == 1 else 416
    most = casimir2d._NODES_PER_CALL // nodes
    assert casimir2d._NODES_PER_CALL == 2 ** 14
    assert len(calls) == math.ceil(ells.size / most)
    rows = [l[0] for l, _ in calls]
    assert sum(rows) == ells.size and max(rows) - min(rows) <= 1
    for l, s in calls:
        assert l == (s[0], 1) and s[1] == nodes and s[0] * s[1] <= 2 ** 14
    if nodes == 40:
        assert len(calls) == 1
    else:
        assert rows == [32] * (ells.size // 32)
    _assert_term_by_term(_spied_kernel(0.4, []), law.shape, ells, value,
                         error)


def test_pressure_block_takes_one_kernel_call(monkeypatch):
    # a 64-term block of lorentzian plates' pressure terms, one rate l lam
    # a term, is one kernel call of 64 x 40 nodes, and its values and bars
    # are those of the terms taken one at a time, bit for bit
    laws = []

    def spy(kernel, shape, *args):
        laws.append((kernel, shape))
        return quadrature.IntegrationResult(1.0, 0.0, 1, True)

    monkeypatch.setattr(casimir4d, "_sum_integral_terms", spy)
    plate = casimir4d.PlanarMirrorModel(lorentzian_mirror(0.8))
    casimir4d.pressure_roundtrip(CavityConfig(plate, plate, 0.3))
    [(kernel, shape)] = laws
    calls = []

    def spied(l, kappa):
        calls.append((l.shape, kappa.shape))
        return kernel(l, kappa)

    ells = np.arange(1, 65)
    value, error = casimir2d._fixed_rule_terms(spied, shape, ells)
    assert calls == [((64, 1), (64, 40))]
    _assert_term_by_term(kernel, shape, ells, value, error)


def test_repeated_split_pair_builds_no_rule():
    # the second call finds every chunk's table in the cache of
    # _rule_table: no table misses, and the value is the same
    cfg = CavityConfig(lorentzian_mirror(0.7), lorentzian_mirror(2.3), 0.4)
    first = force_roundtrip_time(cfg)
    before = casimir2d._rule_table.cache_info()
    again = force_roundtrip_time(cfg)
    after = casimir2d._rule_table.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
    assert again == first


def test_widely_split_force_at_large_separation_converges():
    # the fitted gamma law left seven fallback terms near the inner
    # tolerance here, which summed past abs_tol: converged=False with a bar
    # of 1.24e-14, 1.8e-9 relative
    cfg = CavityConfig(lorentzian_mirror(0.219), lorentzian_mirror(3.2),
                       137.0)
    res, ref = force_roundtrip_time(cfg), force_imag_axis(cfg)
    assert res.converged and ref.converged
    assert res.error_estimate <= 1e-13 * res.value
    assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate


@pytest.mark.parametrize("w1, w2, q", [(0.78, 1.69, 101.0),
                                       (0.53, 2.47, 468.7)])
def test_roundtrip_meets_imag_axis_at_large_separation(w1, w2, q):
    # large-separation forces the all-adaptive series left unconverged
    cfg = CavityConfig(lorentzian_mirror(w1), lorentzian_mirror(w2), q)
    res, ref = force_roundtrip_time(cfg), force_imag_axis(cfg)
    assert res.converged and ref.converged
    assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate


def test_large_distance_limits():
    assert force_large_distance(1.0, 1.0).value == pytest.approx(
        ZETA2 / (4.0 * math.pi), rel=1e-12)
    assert force_large_distance(0.5, 1.0).value == pytest.approx(
        0.5822405264650125059 / (4.0 * math.pi), rel=1e-12)
    # repulsive pair
    assert force_large_distance(-1.0, 1.0).value == pytest.approx(
        -0.82246703342411321824 / (4.0 * math.pi), rel=1e-12)
    assert force_large_distance(0.0, 1.0).value == 0.0


def test_large_distance_thermal_matches_roundtrip():
    # for a perfect pair every delay is zero, so the large-distance series
    # is the exact force at any temperature
    res = force_large_distance(1.0, 1.0, temperature=0.2)
    assert res.value == pytest.approx(THERMAL_FORCE, rel=1e-10)
    rt = force_roundtrip_time(_pair(perfect_mirror, 1.0, T=0.2))
    assert rt.value == pytest.approx(THERMAL_FORCE, rel=1e-12)


def test_perfect_roundtrip_force_is_the_unit_loop_series():
    # a perfect pair is the constant loop r0 = 1: one builder gives both
    # routes the same terms, ratio bound and e-folding length, so they
    # agree in value, bar, term count and convergence
    misses = []
    for q in np.geomspace(0.05, 50, 9):
        for T in np.geomspace(1e-8, 5, 12) / q:
            rt = force_roundtrip_time(_pair(perfect_mirror, q, T=T))
            ld = force_large_distance(1.0, q, temperature=T)
            if (rt.value, rt.error_estimate, rt.roundtrips_used,
                    rt.converged) != (ld.value, ld.error_estimate,
                                      ld.roundtrips_used, ld.converged):
                misses.append((q, T * q, rt, ld))
    assert misses == []


def test_thermal_suppression_is_monotone():
    vals = [force_large_distance(0.7, 1.0, temperature=T).value
            for T in (0.0, 0.3, 1.0)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_strong_thermal_suppression_scale():
    res = force_roundtrip_time(_pair(perfect_mirror, 1.0, T=5.0))
    lead = 4.0 * math.pi * 25.0 * math.exp(-20.0 * math.pi)
    assert res.value == pytest.approx(lead, rel=1e-10)


@pytest.mark.parametrize("engine, planar, pref, power, log_form", _IMAG_AXIS)
def test_imag_axis_rejects_thermal_state(engine, planar, pref, power,
                                         log_form):
    with pytest.raises(ValueError):
        engine(_perfect_pair(planar, 1.0, T=0.5))


@pytest.mark.parametrize("engine, planar, pref, power, log_form", _IMAG_AXIS)
def test_imag_axis_rejects_a_loop_reflection_above_one(engine, planar, pref,
                                                       power, log_form):
    # |r| > 1 makes 1 - x reach 0 near xi = 0: a pole of x / (1 - x) and
    # the log of a negative number
    mirror = MirrorModel("gain", r_imag_fn=lambda xi: np.full(np.shape(xi),
                                                              -1.01))
    if planar:
        mirror = casimir4d.PlanarMirrorModel(mirror)
    with pytest.raises(ValueError, match="reaches 1"):
        engine(CavityConfig(mirror, mirror, 1.0))


def test_casimir_energy_perfect():
    res = casimir_energy(_pair(perfect_mirror, 1.0))
    assert res.value == pytest.approx(-math.pi / 24.0, rel=1e-9)


def test_energy_force_consistency_lorentzian():
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16)
    h = 1e-4
    up = casimir_energy(
        CavityConfig(lorentzian_mirror(1.0), lorentzian_mirror(1.0), 1.0 + h),
        spec)
    dn = casimir_energy(
        CavityConfig(lorentzian_mirror(1.0), lorentzian_mirror(1.0), 1.0 - h),
        spec)
    force = force_imag_axis(
        CavityConfig(lorentzian_mirror(1.0), lorentzian_mirror(1.0), 1.0),
        spec)
    assert (up.value - dn.value) / (2.0 * h) == pytest.approx(force.value,
                                                              rel=1e-6)


def test_free_energy_frozen_value():
    res = free_energy(_pair(perfect_mirror, 1.0, T=0.2))
    assert res.value == pytest.approx(THERMAL_FREE_ENERGY, rel=1e-12)


def test_free_energy_zero_temperature_limit():
    # the T -> 0 plateau of the free energy is the casimir energy, which
    # it misses by the -(T/2) ln(2 T q) of its low-T form (8.9e-8 here);
    # the tail integral collects that plateau within the bar
    T, q = 1e-8, 1.0
    res = free_energy(_pair(perfect_mirror, q, T=T))
    ref, bar = bernoulli_matsubara_sum("free energy", 1.0, q, T)
    assert abs(res.value - (-math.pi / 24.0)) < 1e-6
    assert res.converged
    assert abs(res.value - ref) <= res.error_estimate + bar


@pytest.mark.parametrize("cutoffs, q, tq", [
    ((0.3, 0.3), 0.1, 3e-4), ((0.3, 0.3), 0.1, 5.33e-4),
    ((0.3, 0.3), 0.1, 9.49e-4), ((0.3, 3.0), 0.1, 3e-4),
    ((1.0, 2.0), 3.0, 3e-4), ((3.0, 3.0), 3.0, 3e-4)])
def test_low_temperature_lorentzian_free_energy_meets_matsubara_sum(
        cutoffs, q, tq):
    # the series stops long before l* = 1/(4 pi T q), where its 1/l
    # plateau ends; its own bar still covers the Matsubara sum (the last
    # two converged 1.3 and 1.5 times their bars off when a 1/l^k tail fit,
    # which sees no thermal cutoff, closed them; Gregory's tail over real l
    # closes them now)
    cfg = _exact_weight_pair(cutoffs, q, tq / q)
    res = free_energy(cfg)
    ref, bar = matsubara_sum("free energy", cfg)
    assert res.converged
    assert abs(res.value - ref) <= res.error_estimate + bar


@pytest.mark.parametrize("cutoffs, q, tq", [
    ((1.0, 1.0), 0.1, 1e-6), ((1.0, 2.0), 3.0, 1e-6),
    ((0.3, 3.0), 0.1, 1e-8), ((1.0, 2.0), 0.1, 1e-8),
    ((1.0, 1.0), 1.0, 1e-8)])
def test_lorentzian_free_energy_collects_the_plateau_by_its_tail_integral(
        cutoffs, q, tq):
    # the 1/l plateau runs to l* = 1/(4 pi T q), 8e4 to 8e6 terms here;
    # these series ran unconverged to the 10,000-term cap while their
    # terms took integer l alone (the last 1.4 times its bar off), and
    # Gregory's tail integral over real l now collects it within the bar
    cfg = _exact_weight_pair(cutoffs, q, tq / q)
    res = free_energy(cfg)
    ref, bar = euler_maclaurin_free_energy(cfg)
    assert res.converged
    assert abs(res.value - ref) <= res.error_estimate + bar


@pytest.mark.parametrize("cutoffs", _EXACT_WEIGHT_PAIRS[:3])
def test_low_temperature_lorentzian_grid_meets_matsubara_sums(cutoffs):
    # force, free energy and internal energy of an equal, a one-perfect
    # and a split pair, every one converged within the summed bars from
    # T q = 1e-6 to 1e-2; below T q ~ 1e-3 the lorentzian series ran to
    # the 10,000-term cap while their terms took integer l alone, and
    # close now by Gregory's tail (64 terms at T q <= 1e-3); the direct
    # Matsubara sums take 4 / T q terms
    misses = []
    for tq, q in ((1e-6, 0.3), (1e-5, 3.0), (1e-4, 0.1), (1e-3, 1.0),
                  (1e-2, 10.0)):
        cfg = _exact_weight_pair(cutoffs, q, tq / q)
        for observable, engine in (("force", force_roundtrip_time),
                                   ("free energy", free_energy),
                                   ("internal energy",
                                    internal_energy_thermal)):
            res = engine(cfg)
            ref, bar = matsubara_sum(observable, cfg)
            if not (res.converged and abs(res.value - ref)
                    <= res.error_estimate + bar):
                misses.append((observable, tq, q, res, ref))
    assert misses == []


def test_thermal_series_never_take_the_watson_closure(monkeypatch):
    # Watson's closure expands T = 0 terms and sees no thermal cutoff: no
    # T > 0 series builds it, and each one that reaches a closure takes
    # Gregory's tail over real l; a T = 0 lorentzian force, and a perfect
    # pair's, close by Watson's at l = 64 and take no Gregory tail
    laws, gregory = [], []
    law, tails = casimir2d._watson_law, quadrature._gregory_tails

    def counted_law(*args):
        tail = law(*args)
        return lambda L: laws.append(L) or tail(L)

    monkeypatch.setattr(casimir2d, "_watson_law", counted_law)
    monkeypatch.setattr(quadrature, "_gregory_tails", lambda *args: (
        gregory.append(args[2]) or tails(*args)))
    for tq in (1e-6, 1e-4, 3e-3):
        for q in (0.1, 3.0):
            T = tq / q
            for cutoffs in ((0.7, 0.7), (None, 1.3), (0.4, 2.5),
                            (None, None)):
                cfg = _exact_weight_pair(cutoffs, q, T)
                for engine in (force_roundtrip_time, free_energy,
                               internal_energy_thermal):
                    assert engine(cfg).converged
            for r0 in (1.0, 0.9, -0.9):
                assert force_large_distance(r0, q, T).converged
                assert casimir4d.pressure_thermal_large_distance(
                    r0, q, T).converged
    assert laws == [] and gregory
    gregory.clear()
    for cutoffs in ((0.4, 2.5), (None, None)):
        res = force_roundtrip_time(_exact_weight_pair(cutoffs, 1.0))
        assert res.converged and res.roundtrips_used == 64
    assert laws == [64, 64] and gregory == []


@pytest.mark.parametrize("cutoffs", _EXACT_WEIGHT_PAIRS + [
    pytest.param((None, None), id="perfect")])
def test_euler_maclaurin_free_energy_meets_the_direct_sum(cutoffs):
    # the direct n sum needs 4 / T q terms, so it is the reference only
    # down to T q ~ 1e-6; a perfect pair's closed form checks it below
    for q, tq in ((0.03, 1e-3), (1.0, 1e-2), (30.0, 1e-6)):
        cfg = _exact_weight_pair(cutoffs, q, tq / q)
        ref, bar = euler_maclaurin_free_energy(cfg)
        direct, direct_bar = matsubara_sum("free energy", cfg)
        assert abs(ref - direct) <= bar + direct_bar
    q, T = 0.1, 1e-7
    closed = (-math.pi / (24 * q) - 0.5 * T * math.log(2 * T * q)
              + math.pi * T * T * q / 6)
    ref, bar = euler_maclaurin_free_energy(_exact_weight_pair((None, None),
                                                              q, T))
    assert abs(ref - closed) <= bar + 4 * np.spacing(abs(closed))


def test_free_energy_rejects_zero_temperature():
    with pytest.raises(ValueError):
        free_energy(_pair(perfect_mirror, 1.0))


def test_internal_energy_thermal():
    res = internal_energy_thermal(_pair(perfect_mirror, 1.0, T=0.2))
    assert res.value == pytest.approx(-THERMAL_FORCE, rel=1e-7)
    assert abs(res.value - (-THERMAL_FORCE)) <= 3.0 * res.error_estimate


def test_internal_energy_equals_minus_q_force():
    # Euler-style relation for the perfect pair: U(T) = -q F(T)
    T, q = 0.2, 1.0
    u = internal_energy_thermal(_pair(perfect_mirror, q, T=T))
    f = force_roundtrip_time(_pair(perfect_mirror, q, T=T))
    assert u.value == pytest.approx(-q * f.value, rel=1e-7)


def test_thermal_series_bars_cover_rounding():
    # the truncation bound alone is below 1e-70 here, far under the
    # terms' own rounding
    cfg = _pair(perfect_mirror, 1.0, T=0.2)
    force = force_roundtrip_time(cfg)
    assert abs(force.value - THERMAL_FORCE) <= force.error_estimate
    fe = free_energy(cfg)
    assert abs(fe.value - THERMAL_FREE_ENERGY) <= fe.error_estimate


def _constant_loop(r0, q, T):
    """A pair of frequency-independent mirrors of loop reflection r0."""
    def mirror(r):
        return MirrorModel("constant",
                           r_imag_fn=lambda xi: np.full(np.shape(xi), r))

    r = math.sqrt(abs(r0))
    return CavityConfig(mirror(r), mirror(math.copysign(r, r0)), q,
                        temperature=T)


_LOW_TQ = (1e-8, 3e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 2.5e-3, 4e-3, 1e-2,
           0.1, 1.0)
_LOW_TQ_R0 = (1.0, 0.999999, 0.9999, 0.99, 0.9, 0.5, 0.1,
              -1.0, -0.999999, -0.9999, -0.99, -0.9, -0.5, -0.1)


@pytest.mark.parametrize("tq", _LOW_TQ)
def test_perfect_and_constant_loop_thermal_results_meet_matsubara_sums(tq):
    # every converged, within the summed bars: the perfect pair's force,
    # free energy and internal energy, and the constant loops' force and
    # pressure (r0 = 1 is the perfect pair), on the routes whose terms take
    # real l, or real m for an alternating loop's pairs (78 of its 840
    # results ended unconverged at the 10,000-term cap when its terms were
    # summed one by one); below T q = 1e-5 the 1D references are the
    # Bernoulli form, whose n sum would need 4 / T q terms; the pressure's
    # always is
    misses = []
    for q in (0.1, 0.37, 1.0, 4.2, 30.0):
        T = tq / q
        perfect = _pair(perfect_mirror, q, T=T)
        # (reference, its factor, result, r0): a perfect pair's internal
        # energy is -q times its force
        cases = [("force", 1.0, force_roundtrip_time(perfect), 1.0),
                 ("free energy", 1.0, free_energy(perfect), 1.0),
                 ("force", -q, internal_energy_thermal(perfect), 1.0)]
        cases += [(observable, 1.0, engine(r0, q, T), r0)
                  for r0 in _LOW_TQ_R0
                  for observable, engine in (
                      ("force", force_large_distance),
                      ("pressure", casimir4d.pressure_thermal_large_distance))]
        for observable, factor, res, r0 in cases:
            if observable == "pressure" or tq < 1e-5:
                ref, bar = bernoulli_matsubara_sum(observable, r0, q, T)
            else:
                ref, bar = matsubara_sum(observable, _constant_loop(r0, q, T))
            ref, bar = factor * ref, abs(factor) * bar
            if not (res.converged and abs(res.value - ref)
                    <= res.error_estimate + bar):
                misses.append((observable, r0, q, res, ref))
    assert misses == []


@pytest.mark.parametrize("engine, observable", [
    (force_large_distance, "force"),
    (casimir4d.pressure_thermal_large_distance, "pressure")],
    ids=["force", "pressure"])
def test_alternating_loop_near_minus_one_closes_in_pairs(engine, observable):
    # r0 = -0.9999 at T q = 1e-6 took all 10,000 terms one by one (the
    # force ended unconverged); 64 pairs now close it by Gregory's tail
    res = engine(-0.9999, 1.0, 1e-6)
    ref, bar = bernoulli_matsubara_sum(observable, -0.9999, 1.0, 1e-6)
    assert res.converged and res.roundtrips_used == 128
    assert abs(res.value - ref) <= res.error_estimate + bar


@pytest.mark.parametrize("r0", [-1.0, -0.9999, -0.9, -0.1])
@pytest.mark.parametrize("tq", [1e-8, 1e-6, 1e-4, 1e-2, 1.0])
def test_alternating_pairs_meet_their_ratio_bound(tq, r0):
    # the a priori exit of the pairs T_m = r0^(2m-1) K(2m-1) + r0^(2m) K(2m)
    # rests on |T_(m+1)| <= r0^2 e^(-8 pi T q) |T_m| with every T_m of one
    # sign, for the force kernel and the pressure's remainder kernel; up to
    # m = 5,000 and down to 1e-13 of the largest pair, below which the
    # remainder's differences are cancellation noise
    m = np.arange(1.0, 5001.0)
    for q in (0.1, 1.0, 30.0):
        T = tq / q
        kernels = (lambda tau: -thermal_kernel_time(tau, T),
                   lambda tau: kernel_4d_thermal(tau, T)
                   - 2.0 * T / (np.pi * tau**3))
        for kernel in kernels:
            with np.errstate(all="ignore"):
                pairs = (r0 ** (2 * m - 1) * kernel(2.0 * (2 * m - 1) * q)
                         + r0 ** (2 * m) * kernel(4.0 * m * q))
            above = np.abs(pairs) > 1e-13 * np.abs(pairs).max()
            pairs = pairs[:above.argmin() if not above.all() else m.size]
            assert np.all(np.sign(pairs) == np.sign(pairs[0]))
            assert np.all(np.abs(pairs[1:]) <= r0 * r0 * np.exp(
                -8.0 * np.pi * T * q) * np.abs(pairs[:-1]))


def test_bernoulli_matsubara_meets_the_perfect_closed_forms():
    # perfect pairs at T q << 1: F = pi/24q^2 - T/2q + pi T^2/6,
    # A = -pi/24q - (T/2) ln(2 T q) + pi T^2 q/6, P = pi^2/240q^4 +
    # pi^2 T^4/45, up to e^{-pi/T q}; and the direct n sums at T q = 0.01
    for q, tq in ((0.1, 1e-8), (1.0, 1e-3), (30.0, 1e-5)):
        T = tq / q
        closed = {"force": math.pi / (24 * q * q) - T / (2 * q)
                  + math.pi * T * T / 6,
                  "free energy": -math.pi / (24 * q)
                  - 0.5 * T * math.log(2 * T * q) + math.pi * T * T * q / 6,
                  "pressure": math.pi**2 / (240 * q**4)
                  + math.pi**2 * T**4 / 45}
        for observable, value in closed.items():
            ref, bar = bernoulli_matsubara_sum(observable, 1.0, q, T)
            assert abs(ref - value) <= bar + 4 * np.spacing(abs(value))
    for r0 in (1.0, 0.999999, 0.5, -0.5, -(1.0 - 1e-7)):
        for observable in ("force", "free energy"):
            ref, bar = bernoulli_matsubara_sum(observable, r0, 1.0, 0.01)
            direct, direct_bar = matsubara_sum(observable,
                                            _constant_loop(r0, 1.0, 0.01))
            assert abs(ref - direct) <= bar + direct_bar


@pytest.mark.parametrize("r0", [1.0, -1.0])
def test_bernoulli_matsubara_pressure_takes_a_unit_loop(r0):
    # at T q = 5 the pressure is its n = 0 term, T Li_3(r0) / (4 pi q^3),
    # up to e^(-4 pi T q) ~ 1e-27 relative: Li_3(1) = zeta(3) and
    # Li_3(-1) = -3/4 zeta(3), which raised a math domain error
    li3 = 1.2020569031595942854 * (1.0 if r0 > 0.0 else -0.75)
    for q in (0.1, 1.0, 30.0):
        T = 5.0 / q
        ref, bar = bernoulli_matsubara_sum("pressure", r0, q, T)
        value = T * li3 / (4.0 * np.pi * q**3)
        assert abs(ref - value) <= bar + 4 * np.spacing(abs(value))


@pytest.mark.parametrize("cutoff, tq", [(None, 1.0), (None, 5.0),
                                        (1.0, 0.2), (1.0, 1.0)])
def test_internal_energy_matches_matsubara_sum(cutoff, tq):
    q = 1.0
    maker = perfect_mirror if cutoff is None else (
        lambda: lorentzian_mirror(cutoff))
    cfg = _pair(maker, q, T=tq / q)
    res = internal_energy_thermal(cfg)
    ref, _ = matsubara_sum("internal energy", cfg)
    assert res.converged
    assert abs(res.value - ref) <= res.error_estimate + 4 * np.spacing(abs(ref))


@pytest.mark.parametrize("engine, planar, pref, power, log_form", _IMAG_AXIS)
@given(q=st.floats(0.1, 10.0))
@settings(max_examples=25, deadline=None)
def test_perfect_force_scaling_is_exact(engine, planar, pref, power,
                                        log_form, q):
    # a perfect pair's integrand in u = 2 q xi does not depend on q, so
    # value * q^(p + 1) is one number
    res = engine(_perfect_pair(planar, q))
    ref = engine(_perfect_pair(planar, 1.0))
    assert res.value * q ** (power + 1) == pytest.approx(ref.value, rel=1e-12)


@given(st.one_of(st.just(0.0), st.floats(1e-6, 1.0),
                 st.floats(-1.0, -1e-6)))
@settings(max_examples=40, deadline=None)
def test_sign_law(r0):
    val = force_large_distance(r0, 1.0).value
    if r0 > 0.0:
        assert val > 0.0
    elif r0 < 0.0:
        assert val < 0.0
    else:
        assert val == 0.0


@pytest.mark.parametrize("route", [
    lambda: force_imag_axis(_pair(perfect_mirror, 1.0)),
    lambda: force_roundtrip_time(_pair(perfect_mirror, 1.0)),
    lambda: force_roundtrip_time(_pair(perfect_mirror, 1.0, T=0.2)),
    lambda: force_roundtrip_time(_pair(lambda: lorentzian_mirror(1.0), 1.0)),
    lambda: force_large_distance(0.5, 1.0),
    lambda: force_large_distance(0.5, 1.0, temperature=0.2),
    lambda: mode_sum_oracle_2d(1.0),
    lambda: casimir_energy(_pair(perfect_mirror, 1.0)),
    lambda: free_energy(_pair(perfect_mirror, 1.0, T=0.2)),
    lambda: internal_energy_thermal(_pair(perfect_mirror, 1.0, T=0.2)),
], ids=["imag-axis", "roundtrip", "roundtrip-T", "roundtrip-lorentzian",
        "large-distance", "large-distance-T", "oracle", "energy",
        "free-energy", "internal-energy"])
def test_result_round_trips_through_json(route):
    res = route()
    assert type(res.converged) is bool
    record = dataclasses.asdict(res)
    assert json.loads(json.dumps(record)) == record


@pytest.mark.parametrize("route", [
    lambda s: force_roundtrip_time(_pair(perfect_mirror, 1.0), s),
    lambda s: force_roundtrip_time(_pair(perfect_mirror, 1.0, T=0.2), s),
    lambda s: free_energy(_pair(perfect_mirror, 1.0, T=0.2), s),
    lambda s: internal_energy_thermal(_pair(perfect_mirror, 1.0, T=0.2), s),
    lambda s: force_large_distance(0.6, 1.0, temperature=0.1, spec=s),
    lambda s: casimir4d.pressure_thermal_large_distance(0.6, 1.0, 0.1, s),
], ids=["roundtrip", "roundtrip-T", "free-energy", "internal-energy",
        "large-distance-T", "pressure-large-distance-T"])
def test_rel_tol_below_the_bar_only_clears_converged(route):
    # these series exits read series_tail_tol and abs_tol, not rel_tol:
    # one epilogue decides convergence from the finished value and bar
    spec = QuadratureSpec(abs_tol=1e-300)
    res = route(spec)
    strict = route(dataclasses.replace(
        spec, rel_tol=0.5 * res.error_estimate / abs(res.value)))
    assert res.converged and strict.converged is False
    assert dataclasses.replace(strict, converged=True) == res


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda x: force_large_distance(0.5, x),
    lambda x: force_large_distance(0.5, 1.0, temperature=x),
    mode_sum_oracle_2d,
], ids=["large-distance-q", "large-distance-T", "oracle-q"])
def test_non_finite_parameters_are_rejected(call, bad):
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("call", [
    lambda: force_large_distance(0.5, 1e-170, 0.1),
    lambda: force_large_distance(1e-6, 1e-170, 0.1),
    lambda: casimir4d.pressure_thermal_large_distance(0.5, 1e-100, 0.1),
    lambda: casimir4d.mode_sum_oracle_4d(1e-80),
    lambda: force_imag_axis(_pair(perfect_mirror, 1e-200)),
    lambda: mode_sum_oracle_2d(1e-200),
    lambda: casimir4d.pressure_high_temperature(0.5, 1e-110, 0.1),
    lambda: force_roundtrip_time(_pair(perfect_mirror, 1e-170, 0.1)),
    lambda: casimir2d.Result(math.nan, 0.0, "imag-axis"),
    lambda: casimir2d.Result(1.0, math.inf, "imag-axis"),
], ids=["large-distance-T", "large-distance-T-small-r0", "pressure-T",
        "oracle-4d", "imag-axis", "oracle-2d", "high-T", "perfect-roundtrip",
        "nan-value", "inf-bar"])
def test_results_that_are_not_finite_are_refused(call):
    # q so small that a power of it underflows or the value overflows: a
    # ValueError, never an infinity marked converged or a ZeroDivisionError
    with pytest.raises(ValueError, match="is not finite|overflows"):
        call()


@pytest.mark.parametrize("call, value", [
    (lambda: force_imag_axis(_pair(perfect_mirror, 1e-154)), None),
    (lambda: casimir4d.energy_4d(_pair(perfect_mirror, 1e-103)), None),
    (lambda: casimir_energy(_pair(perfect_mirror, 1e-307)),
     -math.pi / 24e-307),
    (lambda: force_roundtrip_time(_pair(perfect_mirror, 1e-154, 0.1)),
     math.pi / 24e-308),
    (lambda: free_energy(_pair(perfect_mirror, 5.6e-310, 0.1)), None),
], ids=["imag-axis", "energy-4d", "energy", "perfect-roundtrip",
        "free-energy"])
def test_overflow_on_the_way_raises_no_warning(call, value):
    # numpy overflows inside an integral or a series, whatever the warning
    # filter: a refusal (value None) or the perfect pair's closed form,
    # -pi / (24 q) or pi / (24 q^2), never a RuntimeWarning; the free
    # energy's finite terms sum past the float range, which the series'
    # exact sum met with an OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if value is None:
            with pytest.raises(ValueError, match="is not finite"):
                call()
        else:
            res = call()
            assert res.converged
            assert res.value == pytest.approx(value, rel=1e-9)


@pytest.mark.parametrize("call, message", [
    (lambda: force_large_distance(1.5, 1.0), "r0 must lie in [-1, 1]"),
    (lambda: force_large_distance(-1.5, 1.0, temperature=0.3),
     "r0 must lie in [-1, 1]"),
    (lambda: force_large_distance(0.5, 0.0), "separation must be positive "
     "and finite"),
    (lambda: force_large_distance(0.5, 1.0, temperature=-0.1),
     "temperature must be finite and nonnegative"),
    (lambda: internal_energy_thermal(_pair(perfect_mirror, 1.0)),
     "internal_energy_thermal requires T > 0; at T = 0 use casimir_energy"),
], ids=["r0-above-1", "r0-below-minus-1", "q-zero", "T-negative",
        "internal-energy-T0"])
def test_refusals_keep_their_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
