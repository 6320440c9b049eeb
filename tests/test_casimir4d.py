"""Pressures and energies for parallel plates in three space dimensions."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casmat.casimir2d import Result
from casmat.casimir4d import (PlanarMirrorModel, energy_4d,
                              mode_sum_oracle_4d, pressure_high_temperature,
                              pressure_imag_axis, pressure_large_distance,
                              pressure_roundtrip,
                              pressure_thermal_large_distance)
from casmat.quadrature import QuadratureSpec
from casmat.scattering import (CavityConfig, airy_factor, cavity_matrices,
                               lorentzian_mirror, perfect_mirror, phase_shift,
                               phase_shift_derivative_decomposition,
                               tabulated_mirror, validate_model)

from matsubara_sums import bernoulli_matsubara_sum

ZETA3 = 1.2020569031595942854
PERFECT_PRESSURE = math.pi ** 2 / 240.0

# lorentzian plates with cutoff = separation = 1, both polarizations
LORENTZIAN_PRESSURE = 0.006055192185870763


def _plates(maker, q, T=0.0):
    return CavityConfig(PlanarMirrorModel(maker()), PlanarMirrorModel(maker()),
                        q, temperature=T)


def test_planar_model_delegates():
    m = PlanarMirrorModel(lorentzian_mirror(2.0))
    assert m.kind == "lorentzian"
    assert m.cutoff == 2.0
    assert m.has_time_kernel
    assert m.factorization == "normal-wavevector"
    assert m.r_imag(2.0) == pytest.approx(-0.5)


def test_perfect_pressure_imag_axis():
    res = pressure_imag_axis(_plates(perfect_mirror, 1.0))
    assert res.converged
    assert res.value == pytest.approx(PERFECT_PRESSURE, rel=1e-12)


def test_lorentzian_pressure_imag_axis():
    res = pressure_imag_axis(_plates(lambda: lorentzian_mirror(1.0), 1.0))
    assert res.value == pytest.approx(LORENTZIAN_PRESSURE, rel=1e-11)


def test_mode_sum_oracle_closed_form():
    assert mode_sum_oracle_4d(1.0).value == math.pi ** 2 / 240.0
    assert mode_sum_oracle_4d(2.0).value == math.pi ** 2 / 240.0 / 16.0
    # each polarization carries half of the summed pressure
    assert mode_sum_oracle_4d(1.0).value / 2.0 == math.pi ** 2 / 480.0


def test_roundtrip_representation():
    perfect = pressure_roundtrip(_plates(perfect_mirror, 1.0))
    assert perfect.value == pytest.approx(PERFECT_PRESSURE, rel=1e-12)
    cfg = _plates(lambda: lorentzian_mirror(1.0), 1.0)
    assert pressure_roundtrip(cfg).value == pytest.approx(
        pressure_imag_axis(cfg).value, rel=1e-12)


@pytest.mark.parametrize("w1, w2, q", [(2.6, 0.381, 26.0),
                                       (0.678, 1.46, 56.1)])
def test_roundtrip_meets_imag_axis_at_large_separation(w1, w2, q):
    # pressures the all-adaptive series left unconverged (q = 26) or just
    # outside their bars (q = 56)
    cfg = CavityConfig(PlanarMirrorModel(lorentzian_mirror(w1)),
                       PlanarMirrorModel(lorentzian_mirror(w2)), q)
    res, ref = pressure_roundtrip(cfg), pressure_imag_axis(cfg)
    assert res.converged and ref.converged
    assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate


def test_large_distance_limits():
    assert pressure_large_distance(1.0, 1.0).value == pytest.approx(
        3.0 * 1.0823232337111381915 / (8.0 * math.pi ** 2), rel=1e-12)
    assert pressure_large_distance(0.5, 1.0).value == pytest.approx(
        0.019661846639597172484, rel=1e-12)


def test_thermal_pressure_frozen_value():
    # r0 = 1/2, q = 1, alpha = pi T = 1: the classical term and the
    # fluctuation series recombine into a plain kernel sum
    T = 1.0 / math.pi
    res = pressure_thermal_large_distance(0.5, 1.0, T)
    assert res.value == pytest.approx(0.020022966209335976842, rel=1e-10)


def test_thermal_pressure_series_term_count():
    # the a priori exit is met at l = 70 and tested at the checkpoint
    # l = 128, which keeps all the terms of its block
    res = pressure_thermal_large_distance(0.9023, 2.2494,
                                          0.0038 / 2.2494)
    assert res.converged
    assert res.roundtrips_used == 128


def test_thermal_pressure_crossover_monotone():
    vals = [pressure_thermal_large_distance(1.0, 1.0, T).value
            for T in (0.01, 0.1, 1.0, 10.0)]
    assert vals[0] == pytest.approx(PERFECT_PRESSURE, rel=1e-4)
    assert vals[-1] == pytest.approx(
        pressure_high_temperature(1.0, 1.0, 10.0).value, rel=1e-9)
    assert all(a < b * (1.0 + 1e-12) for a, b in zip(vals, vals[1:]))


def test_thermal_pressure_zero_temperature_delegates():
    res = pressure_thermal_large_distance(0.5, 1.0, 0.0)
    assert res.value == pytest.approx(pressure_large_distance(0.5, 1.0).value,
                                      rel=1e-12)


def test_thermal_pressure_converges_at_near_critical_reflectivity():
    # loops just inside |r0| = 1 take the series' own exits (Gregory's
    # closure for r0 > 0) and meet the Matsubara sum within the summed bars
    misses = []
    for r0 in (1.0 - 1e-8, 1.0 - 1e-7, -(1.0 - 1e-7)):
        for tq in (1e-4, 1e-2, 0.3):
            for q in (0.3, 1.0, 3.0):
                res = pressure_thermal_large_distance(r0, q, tq / q)
                ref, bar = bernoulli_matsubara_sum("pressure", r0, q, tq / q)
                if not (res.converged and abs(res.value - ref)
                        <= res.error_estimate + bar):
                    misses.append((r0, tq, q, res, ref))
    assert misses == []
    # the exactly-critical loops have closed-form kernels and are allowed
    assert pressure_thermal_large_distance(-1.0, 1.0, 0.5).value < 0.0


def test_high_temperature_closed_form():
    res = pressure_high_temperature(1.0, 1.0, 1.0)
    assert res.value == pytest.approx(ZETA3 / (4.0 * math.pi), rel=1e-12)
    assert res.method == "closed-form"
    # linear in T, cubic in 1/q
    assert pressure_high_temperature(1.0, 2.0, 3.0).value == pytest.approx(
        3.0 * ZETA3 / (4.0 * math.pi * 8.0), rel=1e-12)


def test_energy_4d_perfect():
    res = energy_4d(_plates(perfect_mirror, 1.0))
    assert res.value == pytest.approx(-math.pi ** 2 / 720.0, rel=1e-12)


def test_energy_is_minus_q_third_of_pressure():
    u = energy_4d(_plates(perfect_mirror, 1.0))
    f = pressure_imag_axis(_plates(perfect_mirror, 1.0))
    assert u.value == pytest.approx(-f.value / 3.0, rel=1e-12)


def test_energy_pressure_consistency_lorentzian():
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16)
    h = 1e-4
    up = energy_4d(_plates(lambda: lorentzian_mirror(1.0), 1.0 + h), spec)
    dn = energy_4d(_plates(lambda: lorentzian_mirror(1.0), 1.0 - h), spec)
    f = pressure_imag_axis(_plates(lambda: lorentzian_mirror(1.0), 1.0), spec)
    assert (up.value - dn.value) / (2.0 * h) == pytest.approx(f.value,
                                                              rel=1e-6)


@given(st.one_of(st.just(0.0), st.floats(1e-6, 0.99),
                 st.floats(-0.99, -1e-6)))
@settings(max_examples=40, deadline=None)
def test_sign_law(r0):
    val = pressure_large_distance(r0, 1.0).value
    if r0 > 0.0:
        assert val > 0.0
    elif r0 < 0.0:
        assert val < 0.0
    else:
        assert val == 0.0


@pytest.mark.parametrize("route", [
    lambda: pressure_imag_axis(_plates(perfect_mirror, 1.0)),
    lambda: pressure_roundtrip(_plates(lambda: lorentzian_mirror(1.0), 1.0)),
    lambda: pressure_large_distance(0.5, 1.0),
    lambda: pressure_thermal_large_distance(0.5, 1.0, 0.3),
    lambda: pressure_high_temperature(0.5, 1.0, 1.0),
    lambda: mode_sum_oracle_4d(1.0),
    lambda: energy_4d(_plates(perfect_mirror, 1.0)),
], ids=["imag-axis", "roundtrip", "large-distance", "thermal-large-distance",
        "high-T", "oracle", "energy"])
def test_result_round_trips_through_json(route):
    res = route()
    assert type(res.converged) is bool
    record = dataclasses.asdict(res)
    assert json.loads(json.dumps(record)) == record


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda x: pressure_large_distance(0.5, x),
    lambda x: pressure_thermal_large_distance(0.5, x, 0.3),
    lambda x: pressure_thermal_large_distance(0.5, 1.0, x),
    lambda x: pressure_high_temperature(0.5, x, 1.0),
    lambda x: pressure_high_temperature(0.5, 1.0, x),
    mode_sum_oracle_4d,
], ids=["large-distance-q", "thermal-large-distance-q",
        "thermal-large-distance-T", "high-T-q", "high-T-T", "oracle-q"])
def test_non_finite_parameters_are_rejected(call, bad):
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("cutoff", [0.3, 1.0, 3.0])
def test_planar_model_is_its_base_on_the_real_axis(cutoff):
    # the scattering functions take a plate mirror as its base model
    bare = lorentzian_mirror(cutoff)
    plate = PlanarMirrorModel(bare)
    grid = np.geomspace(1e-2, 1e2, 11)
    assert validate_model(plate, grid) == validate_model(bare, grid)
    plates = CavityConfig(plate, plate, 0.7)
    bares = CavityConfig(bare, bare, 0.7)
    for omega in (0.05, 0.9, 7.0):
        for f in (airy_factor, phase_shift,
                  phase_shift_derivative_decomposition):
            assert f(plates, omega) == f(bares, omega)
        got, want = (cavity_matrices(c, omega) for c in (plates, bares))
        assert got.S.tolist() == want.S.tolist()
        assert got.R.tolist() == want.R.tolist()
        assert got.d == want.d


@pytest.mark.parametrize("cutoff", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("q", [0.3, 1.0])
def test_roundtrip_takes_a_tabulated_mirror(cutoff, q):
    # the 4D roundtrip expands the imaginary-axis integrand, so r[i xi]
    # is all it needs; at q = 10 it stops short of its tolerance
    xi = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 200)))
    m = PlanarMirrorModel(tabulated_mirror(xi, -cutoff / (cutoff + xi)))
    cfg = CavityConfig(m, m, q)
    a, b = pressure_imag_axis(cfg), pressure_roundtrip(cfg)
    assert a.converged and b.converged
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


def _mixed_pair(name, q):
    """A plate pair with a table, whose loop-law record is not analytic: a
    lorentzian (cutoff 1) or perfect plate facing r = -1/(1 + xi), whose
    rbar(0) = 1/(1 + 1e-3) e-folds over about 1,000 roundtrips, tables of
    opposite signs, rbar(0) = -0.81/(1 + 1e-3)^2, which e-fold never, or
    the lorentzian plate facing the wider table r = -2/(2 + xi)."""
    xi = np.geomspace(1e-3, 1e3, 200)

    def table(r0, w=1.0):
        return tabulated_mirror(xi, r0 * w / (w + xi))
    pair = {"lorentzian": lambda: (lorentzian_mirror(1.0), table(-1.0)),
            "perfect": lambda: (perfect_mirror(), table(-1.0)),
            "opposite": lambda: (table(0.9), table(-0.9)),
            "wider": lambda: (lorentzian_mirror(1.0), table(-1.0, 2.0)),
            }[name]()
    return CavityConfig(*map(PlanarMirrorModel, pair), q)


@pytest.mark.parametrize("name, q", [
    (name, q) for name in ("lorentzian", "perfect", "opposite")
    for q in (0.1, 1.0, 3.0)] + [pytest.param(
        "wider", 10.0, marks=pytest.mark.xfail(strict=True, reason=(
            "the fixed rules accept the first term 1.1e-8 relative off "
            "with a bar inside the inner tolerance 0.5e-9: converged, 6.8 "
            "times the summed bars off")))])
def test_roundtrip_takes_a_table_facing_any_mirror(name, q):
    # the lorentzian plate keeps its cutoff in the pressure's lam = 2q +
    # sigma though the pair has a table; each pair's series converges
    # within the summed bars of the imaginary-axis route
    cfg = _mixed_pair(name, q)
    a, b = pressure_imag_axis(cfg), pressure_roundtrip(cfg)
    assert a.converged and b.converged
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


@pytest.mark.parametrize("cutoff", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("q", [0.1, 0.3])
def test_roundtrip_closes_a_table_that_reaches_one_at_its_first_knot(
        cutoff, q):
    # r = -cutoff / (cutoff + xi - xi_1) from |r| = 1 at its first knot
    # xi_1 = 1e-3, held below it: rbar(0) = 1, and a table has no law to
    # expand, so its terms take real l and Gregory's tail with an infinite
    # e-folding length closes them at l = 64.  The 1/l^k tail fit took up
    # to 256 terms and met two of these 1.75 and 6.2 times the summed bars
    # off
    xi = np.geomspace(1e-3, 1e3, 200)
    m = PlanarMirrorModel(tabulated_mirror(xi, -cutoff / (cutoff + (
        xi - xi[0]))))
    cfg = CavityConfig(m, m, q)
    assert cfg.loop_r0() == 1.0
    a, b = pressure_imag_axis(cfg), pressure_roundtrip(cfg)
    assert a.converged and b.converged and b.roundtrips_used == 64
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


@pytest.mark.parametrize("r0, eps, q", [(0.9995, 1e-8, 0.1),
                                        (0.9995, 1e-8, 1.0),
                                        (0.99995, 1e-10, 0.1)])
def test_roundtrip_meets_imag_axis_on_a_nearly_constant_table(r0, eps, q):
    # r = r0 (1 - eps xi / (1 + xi)) on both plates: the terms go like
    # rbar(0)^l / l^4, which the tail fit's 1/l^k basis cannot hold (it
    # exited converged 5.5, 5.5 and 9.8 times the summed bars off); they
    # take real l and e-fold over -1/ln rbar(0), so Gregory's tail closes
    # them at l = 64, within 0.38, 0.58 and 0.014 of the summed bars
    xi = np.geomspace(1e-3, 1e3, 50)
    m = PlanarMirrorModel(tabulated_mirror(xi, r0 * (1.0 - eps * xi
                                                     / (1.0 + xi))))
    cfg = CavityConfig(m, m, q)
    a, b = pressure_imag_axis(cfg), pressure_roundtrip(cfg)
    assert a.converged and b.converged
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


@pytest.mark.parametrize("r0", [0.99, 0.999])
@pytest.mark.parametrize("q", [0.1, 1.0])
def test_roundtrip_closes_a_constant_table_through_the_polylog(
        r0, q, monkeypatch):
    # an exactly constant table -r0 on both plates: the l-th term is
    # r0^(2l) 6 / (pi^2 (2 l q)^4), the series of the closed form
    # 3 Li_4(r0^2) / (8 pi^2 q^4).  At r0 = 0.99 it e-folds over 50
    # terms, and the observed ratio ends it at l = 256; at 0.999, over 500,
    # and Gregory's tail closes it at the first checkpoint.  Either lies
    # within the summed bars of that closed form, which the series engine
    # does not detect: it calls no polylogarithm
    from casmat import quadrature
    calls = []
    monkeypatch.setattr(quadrature, "polylog",
                        lambda x, p: calls.append((x, p)))
    m = PlanarMirrorModel(tabulated_mirror(np.geomspace(1e-3, 1e3, 50),
                                           np.full(50, -r0)))
    got = pressure_roundtrip(CavityConfig(m, m, q))
    want = pressure_large_distance(r0 ** 2, q)
    assert got.converged and got.roundtrips_used == {0.99: 256, 0.999: 64}[r0]
    assert abs(got.value - want.value) <= (got.error_estimate
                                           + want.error_estimate)
    assert calls == []


@pytest.mark.parametrize("q", [1e-83, 1e-80, 1e-79])
def test_roundtrip_refuses_a_pressure_past_the_float_range(q):
    # the fixed-rule kernel overflows and the fallback's exact panel sum
    # passes the float range: Result's ValueError, not an OverflowError
    with pytest.raises(ValueError, match="is not finite"):
        pressure_roundtrip(_plates(perfect_mirror, q))


@pytest.mark.parametrize("call, message", [
    (lambda: pressure_large_distance(1.5, 1.0), "r0 must lie in [-1, 1]"),
    (lambda: pressure_thermal_large_distance(-1.5, 1.0, 0.3),
     "r0 must lie in [-1, 1]"),
    (lambda: pressure_high_temperature(1.5, 1.0, 0.3),
     "r0 must lie in [-1, 1]"),
    (lambda: pressure_thermal_large_distance(0.5, -1.0, 0.3),
     "separation must be positive and finite"),
    (lambda: pressure_high_temperature(0.5, 1.0, -0.3),
     "temperature must be finite and nonnegative"),
    (lambda: pressure_roundtrip(_plates(perfect_mirror, 1.0, T=0.3)),
     "pressure_roundtrip is a zero-temperature route; use "
     "pressure_thermal_large_distance at T > 0"),
], ids=["large-distance-r0", "thermal-r0", "high-T-r0", "thermal-q",
        "high-T-T", "roundtrip-T"])
def test_refusals_keep_their_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call, method", [
    (lambda: pressure_thermal_large_distance(0.0, 1.0, 0.3),
     "large-distance"),
    (lambda: pressure_high_temperature(0.0, 1.0, 0.3), "closed-form"),
], ids=["thermal", "high-T"])
def test_a_zero_loop_reflection_gives_an_exact_zero(call, method):
    assert call() == Result(0.0, 0.0, method, None, True)
