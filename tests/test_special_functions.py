"""Polylogarithm, Bernoulli numbers and roundtrip delay densities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import hyp0f1, ive

from casmat import special_functions
from casmat.quadrature import integrate_semi_infinite
from casmat.special_functions import (bernoulli, erlang_weight, hypoexp_weight,
                                      polylog)

ZETA2 = 1.6449340668482264365
ZETA3 = 1.2020569031595942854
ZETA4 = 1.0823232337111381915


def test_polylog_at_one_half():
    assert polylog(0.5, 2) == pytest.approx(0.5822405264650125059, rel=1e-13)
    assert polylog(0.5, 3) == pytest.approx(0.53721319360804020094, rel=1e-13)
    assert polylog(0.5, 4) == pytest.approx(0.51747906167389938633, rel=1e-13)


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("x", [0.3, -0.3, 0.5, -0.5, 0.9, -0.9, 0.95, -0.95,
                               1.0 - 2e-4, -(1.0 - 2e-4)])
def test_polylog_meets_its_tolerance_against_mpmath(x, p):
    # every value is summed to rounding: a direct sum (|x| <= 0.9) stops
    # at the fewest terms whose tail bound is below 1e-16 relative, and
    # near -1 both pieces of the inversion do
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = float(mpmath.polylog(p, x))
    assert polylog(x, p) == pytest.approx(ref, rel=2e-15, abs=0.0)


def test_polylog_unit_circle_edges():
    assert polylog(1.0, 2) == pytest.approx(ZETA2, rel=1e-13)
    assert polylog(1.0, 3) == pytest.approx(ZETA3, rel=1e-13)
    assert polylog(1.0, 4) == pytest.approx(ZETA4, rel=1e-13)
    assert polylog(-1.0, 2) == pytest.approx(-0.82246703342411321824, rel=1e-13)
    assert polylog(-1.0, 4) == pytest.approx(-0.94703282949724591758, rel=1e-13)


def test_polylog_near_unit_argument():
    # direct summation would need ~1e7 terms here; the expansion about the
    # branch point must take over without losing accuracy
    assert polylog(1.0 - 1e-7, 2) == pytest.approx(1.6449323550385795, rel=1e-12)
    assert polylog(-(1.0 - 1e-7), 2) == pytest.approx(
        -0.82246703342411321824, rel=1e-6)


def test_polylog_trivial_arguments():
    assert polylog(0.0, 2) == 0.0
    assert polylog(1e-9, 3) == pytest.approx(1e-9, rel=1e-8)


@given(st.floats(-0.999, 0.999), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_polylog_duplication_identity(x, p):
    lhs = polylog(x, p)
    rhs = 2.0 ** (1 - p) * polylog(x * x, p) - polylog(-x, p)
    assert lhs == pytest.approx(rhs, rel=2e-11, abs=1e-13)


@given(st.floats(-0.9, 0.9), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_polylog_matches_direct_sum(x, p):
    direct = sum(x ** ell / ell ** p for ell in range(1, 500))
    assert polylog(x, p) == pytest.approx(direct, rel=1e-11, abs=1e-14)


def test_bernoulli_exact_fractions():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_table_is_cached_read_only():
    # one exact table per order, shared by every call: a tuple, so no
    # caller can change the numbers another reads
    table = special_functions._bernoulli_table(12)
    assert special_functions._bernoulli_table(12) is table
    assert isinstance(table, tuple) and table[12] == Fraction(-691, 2730)
    assert bernoulli(12) is table[12]


def test_erlang_single_roundtrip_is_exponential():
    s = np.linspace(0.0, 12.0, 7)
    assert erlang_weight(1, 2.0, s) == pytest.approx(2.0 * np.exp(-2.0 * s))


def test_erlang_weight_normalization_and_mean():
    for ell, rate in ((1, 0.7), (3, 2.0), (10, 0.3)):
        norm = integrate_semi_infinite(lambda s: erlang_weight(ell, rate, s),
                                       ell / rate)
        mean = integrate_semi_infinite(lambda s: s * erlang_weight(ell, rate, s),
                                       ell / rate)
        assert norm.converged and mean.converged
        assert norm.value == pytest.approx(1.0, rel=1e-9)
        assert mean.value == pytest.approx(ell / rate, rel=1e-9)


def test_hypoexp_weight_value():
    assert hypoexp_weight(3, 1.0, 2.5, 2.0) == pytest.approx(
        0.14735176619907907296, rel=1e-12)


def test_hypoexp_normalization_and_mean():
    ell, a, b = 2, 0.8, 2.1
    scale = ell / a + ell / b
    norm = integrate_semi_infinite(lambda s: hypoexp_weight(ell, a, b, s), scale)
    mean = integrate_semi_infinite(lambda s: s * hypoexp_weight(ell, a, b, s),
                                   scale)
    assert norm.value == pytest.approx(1.0, rel=1e-9)
    assert mean.value == pytest.approx(scale, rel=1e-9)


def test_hypoexp_equal_rates_reduce_to_erlang():
    # ell passages through each of two equal-rate mirrors look like 2*ell
    # passages through one of them; the confluent form must not lose digits
    s = np.linspace(0.05, 9.0, 40)
    got = hypoexp_weight(2, 1.3, 1.3 + 1e-9, s)
    want = erlang_weight(4, 1.3, s)
    assert np.max(np.abs(got - want)) < 1e-8


# real orders: the thermal series' Gregory tails take the densities at
# real l between the integers
_REAL_ORDERS = [1.5, 64.37, 1000.5]


@pytest.mark.parametrize("ell", [1, 5, 64, 1024] + _REAL_ORDERS)
def test_erlang_weight_matches_mpmath(ell):
    # 40-digit Gamma(ell, rate) density at the same float s, from 0.05 to
    # 2.5 mean delays; its log-space form adds four summands, so the
    # relative error is bounded by 4 eps times the sum L of their
    # magnitudes, plus one subnormal ulp where the density underflows
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    for rate in (0.05, 1.3, 23.0):
        s = ell / rate * np.linspace(0.05, 2.5, 5)
        got = erlang_weight(ell, rate, s)
        for si, wi in zip(s, got):
            with mpmath.workdps(40):
                R, S, E = mpmath.mpf(rate), mpmath.mpf(si), mpmath.mpf(ell)
                ref = float(R ** E * S ** (E - 1) * mpmath.exp(-R * S)
                            / mpmath.gamma(E))
            L = (ell * abs(math.log(rate)) + (ell - 1) * abs(math.log(si))
                 + rate * si + abs(math.lgamma(ell)))
            bound = 4.0 * eps * L * ref + eps * np.finfo(float).tiny
            assert abs(wi - ref) <= bound, (rate, si, wi, ref)


@pytest.mark.parametrize("ell", [1, 5, 64, 256, 1024] + _REAL_ORDERS)
def test_hypoexp_weight_matches_mpmath(ell):
    # 40-digit 1F1 form at the same float s, from 0.05 to 2.5 mean delays.
    # Any log-space evaluation adds and exponentiates summands as large as
    # (a+b)s/2 ~ 1e5 (ell = 1024, rates 0.1 and 10), so the relative error
    # is bounded by 4 eps times the sum L of their magnitudes, plus one
    # subnormal ulp where the density underflows
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    c = ell + 0.5
    for a, b in ((0.3, 3.0), (0.533, 2.474), (1.0, 1.001), (0.1, 10.0)):
        s = (ell / a + ell / b) * np.linspace(0.05, 2.5, 5)
        got = hypoexp_weight(ell, a, b, s)
        for si, wi in zip(s, got):
            with mpmath.workdps(40):
                A, B, S = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(si)
                E = mpmath.mpf(ell)
                ref = float((A * B) ** E * S ** (2 * E - 1)
                            * mpmath.exp(-B * S)
                            * mpmath.hyp1f1(E, 2 * E, (B - A) * S,
                                            maxterms=10**6)
                            / mpmath.gamma(2 * E))
            y = ((b - a) * si / 4.0) ** 2
            k = math.floor(2.0 * y / (math.sqrt(c * c + 4.0 * y) + c))
            L = (ell * abs(math.log(a * b)) + (2 * ell - 1) * abs(math.log(si))
                 + 0.5 * (a + b) * si + math.lgamma(2 * ell) + math.lgamma(c)
                 + k * abs(math.log(y)) + math.lgamma(k + 1)
                 + math.lgamma(c + k))
            bound = 4.0 * eps * L * ref + eps * np.finfo(float).tiny
            assert abs(wi - ref) <= bound, (a, b, si, wi, ref)


def test_polylog_unit_circle_is_exact_zeta():
    # zeta(p) and the alternating sum -(1 - 2^(1-p)) zeta(p) to 2 ulp, with
    # no absolute slack
    for p, z in ((2, ZETA2), (3, ZETA3), (4, ZETA4)):
        alt = -(1.0 - 2.0 ** (1 - p)) * z
        assert abs(polylog(1.0, p) - z) <= 2 * math.ulp(z)
        assert abs(polylog(-1.0, p) - alt) <= 2 * math.ulp(alt)


def _mixed_nodes(n, rng, smax):
    """n nodes with their own roundtrip orders, some of them at s = 0."""
    ell = rng.integers(1, 300, n)
    s = rng.uniform(0.0, smax, n) * ell
    s[::97] = 0.0
    return ell, s


def test_erlang_weight_takes_one_ell_per_node():
    rng = np.random.default_rng(11)
    ell, s = _mixed_nodes(2000, rng, 4.0)
    ell[:5] = 1
    got = erlang_weight(ell, 1.3, s)
    for l in np.unique(ell):
        at = ell == l
        assert got[at].tolist() == erlang_weight(int(l), 1.3, s[at]).tolist()
    # ell and s broadcast against each other
    assert erlang_weight(ell, 1.3, 2.0).tolist() == [
        erlang_weight(int(l), 1.3, 2.0) for l in ell]


def test_hypoexp_weight_takes_one_ell_per_node():
    # nodes of many orders share one call; each equals its value in a call
    # for its order
    rng = np.random.default_rng(12)
    ell, s = _mixed_nodes(3000, rng, 12.0)
    got = hypoexp_weight(ell, 0.1, 10.0, s)
    for l in np.unique(ell):
        at = ell == l
        assert got[at].tolist() == hypoexp_weight(int(l), 0.1, 10.0,
                                                  s[at]).tolist()
    assert hypoexp_weight(ell[:50], 0.1, 10.0, 3.0).tolist() == [
        hypoexp_weight(int(l), 0.1, 10.0, 3.0) for l in ell[:50]]


def _forms(ell, rate1, rate2, s):
    """Which form each node takes: 0 Bessel, 1 0F1, 2 Debye."""
    z = 0.5 * abs(rate2 - rate1) * s
    near = ~(ive(ell - 0.5, z) >= np.finfo(float).tiny)
    over = near & (hyp0f1(ell + 0.5, (0.5 * z) ** 2) == np.inf)
    return near.astype(int) + over


@pytest.mark.parametrize("rate1, rate2, orders, forms", [
    (1.0, 1.001, [1, 5, 64, 256, 1024], {0, 1}),
    (1.0, 3.0, [64, 1024, 2048, 4096], {0, 1, 2}),
])
def test_hypoexp_weight_mixed_forms_are_per_node(rate1, rate2, orders, forms):
    # one call whose nodes take different forms (s = 0 takes 0F1); each
    # node equals its value in a call of its own, bit for bit
    rng = np.random.default_rng(13)
    ell = rng.choice(orders, 400)
    s = (ell / rate1 + ell / rate2) * rng.uniform(0.0, 2.5, 400)
    s[::50] = 0.0
    assert set(_forms(ell, rate1, rate2, s).tolist()) == forms
    got = hypoexp_weight(ell, rate1, rate2, s)
    assert np.all(np.isfinite(got))
    assert got.tolist() == [hypoexp_weight(int(l), rate1, rate2, si)
                            for l, si in zip(ell, s)]


@pytest.mark.parametrize("ell, a, b", [(4096, 1.0, 3.0), (3000, 1e-3, 1e3)])
def test_hypoexp_weight_past_both_scipy_forms(ell, a, b):
    # around the mean delay 0F1 overflows, and ive underflows (ell = 4096
    # at rates 1 and 3) or is NaN past its argument limit (d s / 2 = 1.5e9
    # at rates 1e-3 and 1e3), so the density comes from Debye's expansion;
    # 40-digit 0F1 reference, relative error bounded as in the mpmath
    # test by 4 eps times summands of about 1.5e5 in all
    mpmath = pytest.importorskip("mpmath")
    s = (ell / a + ell / b) * np.array([0.9, 1.0, 1.1])
    assert _forms(ell, a, b, s).tolist() == [2, 2, 2]
    got = hypoexp_weight(ell, a, b, s)
    for si, wi in zip(s, got):
        with mpmath.workdps(40):
            A, B, S = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(si)
            ref = float((A * B) ** ell * S ** (2 * ell - 1)
                        * mpmath.exp(-(A + B) * S / 2)
                        * mpmath.hyp0f1(ell + mpmath.mpf(1) / 2,
                                        ((B - A) * S / 4) ** 2)
                        / mpmath.factorial(2 * ell - 1))
        assert wi == pytest.approx(ref, rel=1.5e-10)


@pytest.mark.parametrize("call", [
    lambda x: erlang_weight(2, x, 1.0),
    lambda x: erlang_weight(2, 1.0, x),
    lambda x: erlang_weight(2, 1.0, np.array([1.0, x])),
    lambda x: erlang_weight(x, 1.0, 1.0),
    lambda x: hypoexp_weight(2, x, 2.0, 1.0),
    lambda x: hypoexp_weight(2, 1.0, x, 1.0),
    lambda x: hypoexp_weight(2, 1.0, 2.0, x),
    lambda x: hypoexp_weight(np.array([1, 2]), 1.0, 2.0, np.array([1.0, x])),
    lambda x: hypoexp_weight(x, 1.0, 2.0, 1.0),
], ids=["erlang-rate", "erlang-s", "erlang-s-array", "erlang-ell",
        "hypoexp-rate1", "hypoexp-rate2", "hypoexp-s", "hypoexp-s-array",
        "hypoexp-ell"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_delay_density_inputs_are_rejected(call, bad):
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("ell", [0, 0.5, 0.999, -1.5])
@pytest.mark.parametrize("density", [
    lambda ell: erlang_weight(ell, 1.0, 1.0),
    lambda ell: hypoexp_weight(ell, 1.0, 2.0, 1.0),
    lambda ell: hypoexp_weight(np.array([2.5, ell]), 1.0, 2.0, 1.0),
], ids=["erlang", "hypoexp", "hypoexp-array"])
def test_delay_densities_refuse_fewer_than_one_roundtrip(density, ell):
    # real orders are taken from 1 on
    with pytest.raises(ValueError, match="ell must be finite and >= 1"):
        density(ell)


@pytest.mark.parametrize("call", [
    lambda: polylog(math.nan, 2),
    lambda: polylog(math.inf, 2),
    lambda: polylog(-math.inf, 2),
], ids=["x-nan", "x-inf", "x-minus-inf"])
def test_non_finite_polylog_inputs_are_rejected(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("order", [2.5, 2.9, 0.5, 1, 1.0, math.nan,
                                   math.inf, -math.inf])
def test_polylog_refuses_an_order_that_is_not_an_integer_from_2(order):
    # truncation would give Li_2(0.5) for both 2.5 and 2.9, and int(inf)
    # raises OverflowError, not ValueError
    with pytest.raises(ValueError):
        polylog(0.5, order)


def test_polylog_takes_an_integral_float_order():
    for x in (-1.0, -0.95, 0.5, 0.95, 1.0):
        assert polylog(x, 2.0) == polylog(x, 2)
        assert polylog(x, 4.0) == polylog(x, 4)


@pytest.mark.parametrize("call, message", [
    (lambda: polylog(0.5, 1), "polylog order must satisfy p >= 2"),
    (lambda: polylog(0.5, 2.5), "polylog order must be an integer"),
    (lambda: bernoulli(3), "bernoulli is defined here for even k >= 2"),
], ids=["polylog-order-1", "polylog-order-2.5", "bernoulli-odd"])
def test_refusals_keep_their_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
