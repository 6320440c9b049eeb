"""Polylogarithm, Bernoulli numbers and roundtrip delay densities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    lhs = polylog(x, p, 1e-13)
    rhs = 2.0 ** (1 - p) * polylog(x * x, p, 1e-13) - polylog(-x, p, 1e-13)
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


def test_polylog_unit_circle_is_exact_zeta():
    # zeta(p) and the alternating sum -(1 - 2^(1-p)) zeta(p) to 2 ulp, with
    # no absolute slack
    for p, z in ((2, ZETA2), (3, ZETA3), (4, ZETA4)):
        alt = -(1.0 - 2.0 ** (1 - p)) * z
        assert abs(polylog(1.0, p) - z) <= 2 * math.ulp(z)
        assert abs(polylog(-1.0, p) - alt) <= 2 * math.ulp(alt)
