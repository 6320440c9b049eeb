"""Time-domain radiation-pressure and free-energy kernels."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import trapezoid

from casmat.spectral import (free_energy_kernel_time, kernel_4d_thermal,
                             kernel_4d_vacuum, thermal_kernel_time,
                             vacuum_kernel_time)


def test_vacuum_kernel_value():
    assert vacuum_kernel_time(2.0) == pytest.approx(-1.0 / (4.0 * math.pi),
                                                    rel=1e-15)


def test_vacuum_kernel_4d_value():
    assert kernel_4d_vacuum(1.0) == pytest.approx(6.0 / math.pi ** 2, rel=1e-15)
    assert kernel_4d_vacuum(2.0) == pytest.approx(6.0 / (16.0 * math.pi ** 2),
                                                  rel=1e-15)


def test_thermal_kernel_frozen_value():
    # alpha = pi T = 1
    T = 1.0 / math.pi
    assert thermal_kernel_time(1.0, T) == pytest.approx(
        -0.23047598489223271331, rel=1e-13)


def test_thermal_kernel_4d_frozen_value():
    T = 1.0 / math.pi
    assert kernel_4d_thermal(1.0, T) == pytest.approx(
        0.60545799705242103079, rel=1e-13)


def test_zero_temperature_limits():
    assert thermal_kernel_time(1.7, 0.0) == pytest.approx(
        vacuum_kernel_time(1.7), rel=1e-15)
    assert thermal_kernel_time(1.7, 1e-9) == pytest.approx(
        vacuum_kernel_time(1.7), rel=1e-8)
    assert kernel_4d_thermal(1.7, 0.0) == pytest.approx(
        kernel_4d_vacuum(1.7), rel=1e-15)


def test_small_x_expansions():
    # x = pi T tau; leading corrections are -x^2/3 and -x^4/135
    T = 1e-3 / math.pi
    ratio = thermal_kernel_time(1.0, T) / vacuum_kernel_time(1.0)
    assert ratio - (1.0 - 1e-6 / 3.0) == pytest.approx(0.0, abs=1e-12)
    T = 1e-2 / math.pi
    ratio4 = kernel_4d_thermal(1.0, T) / kernel_4d_vacuum(1.0)
    assert ratio4 - (1.0 - 1e-8 / 135.0) == pytest.approx(0.0, abs=1e-13)


def test_thermal_kernel_asymptotic_branch_is_continuous():
    # on both sides of pi T tau = 20, where an asymptotic form could take
    # over, the kernel must equal the unreduced expression; the values are
    # ~3e-17, so no absolute slack
    T = 0.8
    alpha = math.pi * T
    for x in (19.99, 20.01):
        tau = x / alpha
        exact = -(alpha ** 2 / math.pi) / math.sinh(x) ** 2
        assert thermal_kernel_time(tau, T) == pytest.approx(exact, rel=1e-12,
                                                            abs=0)


def test_thermal_kernels_match_frequency_sums():
    # independent route: both kernels as sums over the discrete thermal
    # frequencies xi_n = 2 pi n T
    for tau, T in ((1.0, 1.0 / math.pi), (0.7, 0.9), (3.0, 0.2)):
        xin = 2.0 * math.pi * T * np.arange(1, 400)
        c2 = -2.0 * T * np.sum(xin * np.exp(-xin * tau))
        assert thermal_kernel_time(tau, T) == pytest.approx(c2, rel=1e-13)
        body = np.exp(-xin * tau) * (xin ** 2 / tau + 2.0 * xin / tau ** 2
                                     + 2.0 / tau ** 3)
        c4 = (2.0 * T / math.pi) * (1.0 / tau ** 3 + np.sum(body))
        assert kernel_4d_thermal(tau, T) == pytest.approx(c4, rel=1e-13)


def test_thermal_kernel_matches_bose_weighted_transform():
    # the difference from the vacuum kernel is a Bose-weighted cosine
    # transform of the mode density; trapezoid on a dense grid
    tau, T = 1.0, 0.3
    w = np.linspace(1e-8, 60.0 * T, 200001)
    n = 1.0 / np.expm1(w / T)
    transform = trapezoid((2.0 / math.pi) * w * n * np.cos(w * tau), w)
    diff = thermal_kernel_time(tau, T) - vacuum_kernel_time(tau)
    assert diff == pytest.approx(transform, rel=1e-6)


def test_high_temperature_4d_kernel_is_classical():
    # at alpha tau >> 1 only the zero-frequency term survives
    tau, T = 3.0, 4.0
    alpha = math.pi * T
    assert kernel_4d_thermal(tau, T) == pytest.approx(
        2.0 * alpha / (math.pi ** 2 * tau ** 3), rel=1e-12)


def test_free_energy_kernel_zero_temperature():
    assert free_energy_kernel_time(4.0, 0.0) == pytest.approx(
        -1.0 / (8.0 * math.pi), rel=1e-15)


def test_zero_temperature_kernels_equal_vacuum_forms_exactly():
    # the thermal force and 4D kernels take the vacuum forms at T = 0, which
    # the floored sinh ratios, exactly 1 at x = 0, also give; the
    # free-energy kernel has no T = 0 branch
    tau = np.geomspace(1e-6, 1e6, 2001)
    assert np.array_equal(thermal_kernel_time(tau, 0.0),
                          vacuum_kernel_time(tau))
    assert np.array_equal(free_energy_kernel_time(tau, 0.0),
                          -1.0 / (2.0 * np.pi * tau))
    assert np.array_equal(kernel_4d_thermal(tau, 0.0), kernel_4d_vacuum(tau))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("kernel", [thermal_kernel_time,
                                    free_energy_kernel_time,
                                    kernel_4d_thermal])
def test_non_finite_temperature_is_rejected(kernel, bad):
    with pytest.raises(ValueError):
        kernel(1.0, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("kernel", [
    vacuum_kernel_time,
    lambda tau: thermal_kernel_time(tau, 0.2),
    lambda tau: free_energy_kernel_time(tau, 0.2),
    kernel_4d_vacuum,
    lambda tau: kernel_4d_thermal(tau, 0.2),
], ids=["vacuum", "thermal", "free-energy", "4d-vacuum", "4d-thermal"])
def test_non_finite_delays_are_rejected(kernel, bad):
    with pytest.raises(ValueError):
        kernel(bad)
    with pytest.raises(ValueError):
        kernel(np.array([1.0, bad]))


def test_free_energy_kernel_links_to_force_kernel():
    # twice the tau-derivative of the free-energy kernel is minus the
    # thermal force kernel
    tau, T, h = 1.3, 0.47, 1e-6
    fd = (free_energy_kernel_time(tau + h, T)
          - free_energy_kernel_time(tau - h, T)) / (2.0 * h)
    assert 2.0 * fd == pytest.approx(-thermal_kernel_time(tau, T), rel=1e-8)


@given(st.floats(1e-2, 50.0), st.floats(0.0, 5.0))
@settings(max_examples=80, deadline=None)
def test_kernel_signs_and_thermal_suppression(tau, T):
    c = thermal_kernel_time(tau, T)
    assert c <= 0.0
    if math.pi * T * tau < 350.0:  # representable; beyond, underflow to -0.0
        assert c < 0.0
    # sinh x >= x: finite temperature can only weaken the 2D force kernel
    assert abs(c) <= abs(vacuum_kernel_time(tau)) * (1.0 + 1e-12)
    assert kernel_4d_thermal(tau, T) > 0.0
    assert free_energy_kernel_time(tau, T) <= 0.0
    if math.pi * T * tau < 170.0:
        assert free_energy_kernel_time(tau, T) < 0.0


def test_free_energy_kernel_at_underflowing_alpha_tau():
    # at T = 5e-324 alpha*tau underflows; the kernel must still reduce to
    # its vacuum limit -1/(2 pi tau), finite and without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau in (1e-2, 1.0):
            k = free_energy_kernel_time(tau, 5e-324)
            assert math.isfinite(k)
            assert k == pytest.approx(-1.0 / (2.0 * math.pi * tau), rel=1e-12)
        # an array mixing underflowing and ordinary alpha*tau
        mixed = free_energy_kernel_time(np.array([1e-2, 1e3]), 1e-9)
        assert mixed[0] == pytest.approx(-1.0 / (2.0 * math.pi * 1e-2),
                                         rel=1e-9)
        assert mixed[1] == free_energy_kernel_time(1e3, 1e-9)
        assert free_energy_kernel_time(np.array([]), 1.0).size == 0


@pytest.mark.parametrize("T", [0.3, 1.0, 7.0])
def test_thermal_kernels_match_mpmath_across_x(T):
    # 40-digit values from the defining expressions at the same float tau,
    # on both sides of every x = pi T tau where an evaluation could switch
    # form; the rounding of x = pi T tau is amplified ~2x by the e^{-2x}
    # tails, hence (4x + 16) ulp
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        alpha = mpmath.pi * mpmath.mpf(T)
        for x in (1e-3, 0.5, 5.0, 19.99, 20.01, 50.0, 299.0, 301.0, 350.0):
            tau = x / (math.pi * T)
            t = mpmath.mpf(tau)
            c = -(alpha**2 / mpmath.pi) / mpmath.sinh(alpha * t) ** 2
            # (alpha/2 pi)(1 - coth) without its cancellation
            k = -(alpha / mpmath.pi) / mpmath.expm1(2 * alpha * t)
            c4 = mpmath.diff(lambda u: alpha * mpmath.coth(alpha * u) / u,
                             t, 2) / mpmath.pi**2
            rel = (4.0 * x + 16.0) * eps
            assert thermal_kernel_time(tau, T) == pytest.approx(
                float(c), rel=rel, abs=0)
            assert free_energy_kernel_time(tau, T) == pytest.approx(
                float(k), rel=rel, abs=0)
            assert kernel_4d_thermal(tau, T) == pytest.approx(
                float(c4), rel=rel, abs=0)


def test_thermal_kernels_finite_without_warnings():
    tau = np.geomspace(1e-3, 1e4, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for T in (0.3, 1.0, 100.0):
            for kernel in (thermal_kernel_time, free_energy_kernel_time,
                           kernel_4d_thermal):
                assert np.all(np.isfinite(kernel(tau, T)))
