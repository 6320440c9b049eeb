"""Tests of the benchmark's reference oracles, result checks and tracer.

Run from the repository root with  python3 -m pytest perfbench
"""

import math
import types

import numpy as np
import pytest

import oracles as O
import run as R
import tracer as TR
import workloads as W

mpmath = pytest.importorskip("mpmath")
mpmath.mp.dps = 30

PI = math.pi


# ------------------------------------------------------------ T = 0 oracles

@pytest.mark.parametrize("q", [0.1, 1.0, 37.0])
def test_imag_axis_quadrature_reproduces_perfect_mirror_closed_forms(q):
    # a constant loop of 1 runs the quadrature route, not the closed forms
    exact = {"force2d": PI / (24 * q * q), "energy2d": -PI / (24 * q),
             "force4d": PI**2 / (240 * q**4),
             "energy4d": -PI**2 / (720 * q**3)}
    for obs, value in exact.items():
        ref, err = O.imag_axis_t0(obs, ("constant", 1.0), q)
        assert abs(ref - value) <= max(err, 1e-13 * abs(value))
        assert err < 1e-11 * abs(value)


def test_imag_axis_lorentzian_matches_mpmath():
    w1, w2, q = 0.7, 2.3, 1.9

    def x(k):
        return w1 * w2 / ((w1 + k) * (w2 + k)) * mpmath.exp(-2 * q * k)

    pts = [0, 0.1, 1, 10, mpmath.inf]
    want = {"force2d": mpmath.quad(lambda k: k * x(k) / (1 - x(k)), pts) / PI,
            "force4d": mpmath.quad(lambda k: k**3 * x(k) / (1 - x(k)), pts)
            / PI**2,
            "energy2d": mpmath.quad(lambda k: mpmath.log(1 - x(k)), pts)
            / (2 * PI)}
    for obs, value in want.items():
        ref, err = O.imag_axis_t0(obs, ("lorentzian", w1, w2), q)
        assert abs(ref - float(mpmath.re(value))) <= err + 1e-15 * abs(ref)


def test_tabulated_loop_follows_the_table():
    from scipy.interpolate import PchipInterpolator
    xs = np.geomspace(1e-3, 1e3, 200)
    rs = -1.0 / (1.0 + xs)
    pchip = PchipInterpolator(xs, rs)
    xi = np.array([1e-4, 0.37, 5.0, 2e3])
    held = np.clip(xi, xs[0], xs[-1])
    assert np.exp(O.Loop(("tabulated", xs, rs)).log_r(xi)) == pytest.approx(
        pchip(held) ** 2, rel=1e-13)


@pytest.mark.parametrize("obs", ["force2d", "energy2d", "force4d", "energy4d"])
def test_tabulated_quadrature_matches_quadpack(obs):
    # PCHIP through a constant table is that constant, so the knot-to-knot
    # Gauss route must reproduce the QUADPACK route for a constant loop
    q = 0.7
    xs = np.geomspace(1e-3, 1e4, 400)
    tab, err = O.imag_axis_t0(obs, ("tabulated", xs, np.full(400, -0.8)), q)
    exact, exact_err = O.imag_axis_t0(obs, ("constant", 0.64), q)
    assert err < 1e-13 * abs(tab)
    assert abs(tab - exact) <= err + exact_err


@pytest.mark.parametrize("r0", [0.3, 0.8, 1.0])
def test_large_distance_closed_forms(r0):
    q = 1.7
    f2, _ = O.large_distance_t0("force2d", r0, q)
    p4, _ = O.large_distance_t0("force4d", r0, q)
    assert f2 == pytest.approx(float(mpmath.polylog(2, r0)) / (4 * PI * q * q),
                               rel=1e-14)
    assert p4 == pytest.approx(3 * float(mpmath.polylog(4, r0))
                               / (8 * PI**2 * q**4), rel=1e-13)


def test_polylogs_match_mpmath():
    mu = np.array([-40.0, -3.0, -0.7, -0.69, -0.2, -1e-3, -1e-9, 0.0])
    li1, li2, li3 = O._polylog_123(mu)
    for i, m in enumerate(mu):
        a = mpmath.exp(m)
        if m != 0.0:
            assert li1[i] == pytest.approx(float(-mpmath.log(1 - a)),
                                           rel=1e-14)
        assert li2[i] == pytest.approx(float(mpmath.polylog(2, a)), rel=1e-14)
        assert li3[i] == pytest.approx(float(mpmath.polylog(3, a)), rel=1e-14)


# ---------------------------------------------------------- Matsubara sums

def _mp_sum(f):
    return float(mpmath.nsum(f, [1, mpmath.inf]))


@pytest.mark.parametrize("tq", [1e-3, 0.05, 0.7, 3.0])
def test_matsubara_1d_perfect_mirrors_match_mpmath(tq):
    q = 1.3
    T = tq / q

    def x(n):
        return mpmath.exp(-4 * PI * n * T * q)

    force = _mp_sum(lambda n: 2 * T * 2 * PI * n * T * x(n) / (1 - x(n)))
    free = _mp_sum(lambda n: T * mpmath.log(1 - x(n)))
    for obs, value in (("force2d", force), ("free-energy", free),
                       ("energy2d", -q * force)):
        ref, err = O.matsubara_1d(obs, ("perfect",), q, T)
        assert abs(ref - value) <= err + 1e-15 * abs(value)


@pytest.mark.parametrize("tq", [1e-4, 1.2e-3, 0.02, 0.1])
def test_perfect_mirror_dual_matches_the_direct_sum(tq, monkeypatch):
    q = 0.7
    T = tq / q
    for obs in ("force2d", "free-energy", "energy2d"):
        dual, dual_err = O.matsubara_1d(obs, ("perfect",), q, T)
        monkeypatch.setattr(O, "_DUAL_MAX_TQ", 0.0)
        direct, direct_err = O.matsubara_1d(obs, ("perfect",), q, T)
        monkeypatch.undo()
        assert abs(dual - direct) <= dual_err + direct_err
        # the dual's bound is a few ulps, well below the direct sum's
        assert dual_err < 0.5 * direct_err or tq == 0.1


@pytest.mark.parametrize("tq", [2e-3, 0.03])
def test_perfect_mirror_dual_matches_mpmath(tq):
    q = 1.3
    T = tq / q
    with mpmath.workdps(40):
        a = 4 * mpmath.pi * mpmath.mpf(T) * q
        n_max = int(80 / float(a)) + 1  # the terms beyond are below e^-80
        force = mpmath.fsum(4 * mpmath.pi * T * T * n * mpmath.exp(-a * n)
                            / -mpmath.expm1(-a * n) for n in range(1, n_max))
        free = mpmath.fsum(T * mpmath.log(-mpmath.expm1(-a * n))
                           for n in range(1, n_max))
    for obs, value in (("force2d", force), ("free-energy", free),
                       ("energy2d", -q * force)):
        ref, err = O.matsubara_1d(obs, ("perfect",), q, T)
        assert abs(ref - float(value)) <= err
        assert err < 16 * math.ulp(abs(ref))


def test_matsubara_force_tends_to_pi_over_24():
    # without its n = 0 term, of weight T/2q, the sum tends to pi/24q^2
    q = 2.0
    T = 1e-4 / q
    ref, _ = O.matsubara_1d("force2d", ("perfect",), q, T)
    assert ref + T / (2 * q) == pytest.approx(PI / (24 * q * q), rel=1e-7)


def test_matsubara_internal_energy_is_minus_T_dA_dT():
    # U = A - T dA/dT for a lorentzian pair, the derivative by a centered
    # difference of the oracle's own free energy
    loop, q, T = ("lorentzian", 0.8, 0.8), 1.1, 0.05
    h = 1e-4 * T
    a0 = O.matsubara_1d("free-energy", loop, q, T)[0]
    ap = O.matsubara_1d("free-energy", loop, q, T + h)[0]
    am = O.matsubara_1d("free-energy", loop, q, T - h)[0]
    u = O.matsubara_1d("energy2d", loop, q, T)[0]
    assert u == pytest.approx(a0 - T * (ap - am) / (2 * h), rel=1e-7)


@pytest.mark.parametrize("r0", [1.0, 0.6])
def test_matsubara_4d_pressure_limits(r0):
    q = 0.9
    cold, _ = O.matsubara_4d_pressure(("constant", r0), q, 1e-4 / q)
    t0, _ = O.large_distance_t0("force4d", r0, q)
    assert cold == pytest.approx(t0, rel=1e-9)
    if r0 == 1.0:
        assert cold == pytest.approx(PI**2 / (240 * q**4), rel=1e-9)
    # at high temperature only the classical n = 0 term survives
    T = 6.0 / q
    hot, _ = O.matsubara_4d_pressure(("constant", r0), q, T)
    classical, _ = O.classical_4d_pressure(r0, q, T)
    assert hot == pytest.approx(classical, rel=1e-14)
    assert classical == pytest.approx(
        T * float(mpmath.polylog(3, r0)) / (4 * PI * q**3), rel=1e-14)


def test_matsubara_4d_pressure_matches_mpmath_quadrature():
    r0, q, T = 0.7, 1.0, 0.2

    def inner(xi):
        def f(k):
            x = r0 * mpmath.exp(-2 * q * k)
            return k * k * x / (1 - x)
        return mpmath.quad(f, [xi, xi + 1, mpmath.inf])

    total = 0.5 * inner(0) + mpmath.nsum(lambda n: inner(2 * PI * n * T),
                                         [1, mpmath.inf])
    ref, err = O.matsubara_4d_pressure(("constant", r0), q, T)
    assert abs(ref - float(2 * T / PI * total)) <= err + 1e-15 * ref


# ---------------------------------------------------------------- real axis

def test_phase_shift_reference_is_the_roundtrip_series():
    w1, w2, q = 0.9, 2.2, 0.8
    for om in (0.3, 2.0, 40.0):
        z, _ = O.real_axis_loop(w1, w2, q, om)
        series = sum(2.0 * (z**ell).imag / ell for ell in range(1, 20000))
        ref, err = O.phase_shift_ref(w1, w2, q, om)
        assert abs(ref - series) <= err + 1e-13


def test_phase_shift_derivative_reference():
    w1, w2, q = 0.9, 2.2, 0.8
    for om in (1e-2, 0.3, 2.0):
        h = 1e-6 * om
        fd = (O.phase_shift_ref(w1, w2, q, om + h)[0]
              - O.phase_shift_ref(w1, w2, q, om - h)[0]) / (2 * h)
        assert O.phase_shift_derivative_ref(w1, w2, q, om)[0] == \
            pytest.approx(fd, rel=1e-6)


# ------------------------------------------------------------ result checks

def _judge(value, err, converged, ref=1.0, ref_err=0.0):
    case = W.Case("k", None, lambda raw: [W.Result(value, err, converged)],
                  [(ref, ref_err)], ())
    tally = R.Tally()
    tally.judge(case, None, None)
    return tally


def test_tally_separates_failures_misses_and_unconverged():
    ok = _judge(1.0 + 1e-12, 2e-12, True)
    assert (ok.failed, ok.err_bar_miss, ok.err_bar_base) == (0, 0, 1)
    miss = _judge(1.0 + 1e-8, 1e-12, True)  # outside its bar, inside REL_TOL
    assert (miss.failed, miss.err_bar_miss) == (0, 1)
    wrong = _judge(1.0 + 1e-3, 1e-12, True)
    assert (wrong.failed, wrong.err_bar_miss) == (1, 1)
    bar_covers = _judge(1.0 + 1e-3, 2e-3, False)
    assert (bar_covers.failed, bar_covers.unconverged,
            bar_covers.err_bar_base) == (0, 1, 0)
    exact = _judge(1.0 + 2.0 * math.ulp(1.0), 0.0, True)  # roundoff floor
    assert exact.err_bar_miss == 0


def test_tally_merge_adds_counts():
    a, b = _judge(1.0 + 1e-8, 1e-12, True), _judge(1.0 + 1e-3, 2e-3, False)
    a.merge(b)
    assert (a.calls, a.failed, a.unconverged, a.err_bar_miss,
            a.err_bar_base) == (2, 0, 1, 1, 1)
    assert len(a.rel_err) == 2 and a.by_kind == {"err_bar_miss": {"k": 1},
                                                 "unconverged": {"k": 1}}


def test_input_sets_repeat_for_a_seed_and_differ_between_sets(tmp_path):
    m = types.SimpleNamespace(scattering=types.SimpleNamespace(
        lorentzian_mirror=lambda w: w, CavityConfig=lambda *a: a,
        perfect_mirror=lambda: 1.0),
        casimir4d=types.SimpleNamespace(PlanarMirrorModel=lambda a: a))

    def params(k):
        rng = np.random.default_rng([5, k])
        return [c.params for c in W.make_roundtrip_t0(m, rng, tmp_path)]

    assert params(0) == params(0)
    assert params(0) != params(1)
    # the same slot of two sets lies in the same stratum
    for a, b in zip(params(0), params(1)):
        assert a[2] == pytest.approx(b[2], rel=0.05)


def test_tally_counts_a_raising_call_as_failed():
    case = W.Case("k", None, None, [(1.0, 0.0)], ())
    tally = R.Tally()
    tally.judge(case, None, ValueError("boom"))
    assert (tally.calls, tally.failed) == (1, 1)


def test_plain_output_is_read_with_its_printed_resolution():
    # laid out like the CLI's table: left-justified columns, two spaces
    fields = ["param", "q", "T", "value", "error", "method", "converged",
              "roundtrips"]
    cells = ["", "1", "0", "0.1308996939", "1e-14", "closed-form", "True", ""]
    widths = [max(len(f), len(c)) for f, c in zip(fields, cells)]
    out = "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                    for row in (fields, cells)) + "\n"
    (res,) = W.parse_cli_records((0, out, ""), "plain")
    assert res.value == 0.1308996939 and res.converged
    assert res.read_err == pytest.approx(5e-13)


# ------------------------------------------------------------------ tracer

def test_tracer_self_time_and_absent_targets():
    mod = types.ModuleType("toy")
    mod.leaf = lambda n: sum(range(n))
    mod.outer = lambda: mod.leaf(100000) + mod.leaf(100000)
    tr = TR.Tracer([("outer", mod, "outer", None),
                    ("leaf", mod, "leaf", lambda args, out: (args[0], False)),
                    ("gone", mod, "renamed_away", None)])
    tr.install()
    try:
        mod.outer()
    finally:
        tr.remove()
    assert tr.absent == ["toy.renamed_away"]
    assert mod.leaf.__name__ == "<lambda>" and len(tr) == 3
    s = tr.summarize(0, len(tr))
    assert s["leaf"]["calls"] == 2 and s["leaf"]["work"] == 200000
    assert s["outer"]["self_s"] == pytest.approx(
        s["outer"]["total_s"] - s["leaf"]["total_s"])
    assert s["gone"]["calls"] == 0


def test_fastest_repeats_and_tail_position():
    assert R.fastest([[3.0, 1.0, 2.0], [9.0, 7.0, 8.0]], 2) == [1.0, 2.0,
                                                               7.0, 8.0]
    for n in (36, 90, 96, 600):
        xs = [float(x) for x in range(n)]
        tail = R.percentile(xs, R.tail_percentile(n))
        assert sum(x > tail for x in xs) == 10
