"""Mirror models, cavity composition and scattering identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casmat.scattering import (CavityConfig, airy_factor, cavity_matrices,
                               load_tabulated_mirror,
                               lorentzian_mirror, perfect_mirror, phase_shift,
                               phase_shift_derivative_decomposition,
                               tabulated_mirror, validate_model)


def test_perfect_mirror_amplitudes():
    m = perfect_mirror()
    assert m.kind == "perfect"
    assert m.r_imag(0.37) == -1.0
    assert complex(m.r_real(2.2)) == -1.0 + 0.0j
    assert complex(m.s_real(2.2)) == 0.0 + 0.0j
    assert m.has_time_kernel


def test_lorentzian_amplitudes():
    m = lorentzian_mirror(2.0)
    assert m.kind == "lorentzian"
    assert m.cutoff == 2.0
    xi = np.array([0.0, 1.0, 10.0])
    assert m.r_imag(xi) == pytest.approx(-2.0 / (2.0 + xi))
    r = complex(m.r_real(3.0))
    assert r == pytest.approx(-2.0 / (2.0 - 3.0j))


@given(st.floats(0.05, 50.0), st.floats(0.05, 50.0))
@settings(max_examples=80, deadline=None)
def test_lorentzian_unitarity(cutoff, w):
    m = lorentzian_mirror(cutoff)
    total = abs(complex(m.r_real(w))) ** 2 + abs(complex(m.s_real(w))) ** 2
    assert total == pytest.approx(1.0, abs=5e-15)


def test_tabulated_mirror_matches_sampled_model():
    xi = np.geomspace(1e-3, 1e3, 300)
    m = tabulated_mirror(xi, -1.0 / (1.0 + xi))
    probe = np.geomspace(1e-2, 1e2, 41)
    assert np.max(np.abs(m.r_imag(probe) + 1.0 / (1.0 + probe))) < 1e-6
    assert m.kind == "tabulated"
    assert not m.has_time_kernel
    # outside the sampled range the endpoint values are held
    assert m.r_imag(1e6) == pytest.approx(-1.0 / (1.0 + 1e3))
    assert m.r_imag(0.0) == pytest.approx(-1.0 / (1.0 + 1e-3))


def test_tabulated_mirror_file_roundtrip(tmp_path):
    xi = np.geomspace(1e-3, 1e3, 200)
    path = tmp_path / "mirror.tab"
    with open(path, "w") as f:
        f.write("# reflection samples\n")
        for a in xi:
            f.write("%.17g %.17g\n" % (a, -1.0 / (1.0 + a)))
    m = load_tabulated_mirror(str(path))
    assert m.r_imag(1.0) == pytest.approx(-0.5, abs=1e-7)


def test_tabulated_mirror_q_relative_units(tmp_path):
    xi = np.geomspace(1e-3, 1e3, 200)
    path = tmp_path / "mirror.tab"
    with open(path, "w") as f:
        f.write("units: q-relative\n")
        for a in xi:
            f.write("%.17g %.17g\n" % (a, -1.0 / (1.0 + a)))
    m = load_tabulated_mirror(str(path), q=2.0)
    # column 1 holds xi*q, so absolute xi = 0.5 reads the sample at 1.0
    assert m.r_imag(0.5) == pytest.approx(-0.5, abs=1e-7)
    with pytest.raises(ValueError):
        load_tabulated_mirror(str(path))


def test_cavity_config_validation():
    m = perfect_mirror()
    with pytest.raises(ValueError):
        CavityConfig(m, m, 0.0)
    with pytest.raises(ValueError):
        CavityConfig(m, m, -1.0)
    with pytest.raises(ValueError):
        CavityConfig(m, m, 1.0, temperature=-0.5)


def test_loop_reflectivity():
    cfg = CavityConfig(perfect_mirror(), lorentzian_mirror(2.0), 1.0)
    # (-1) * (-2/(2+xi)) is positive: an attractive pair
    assert cfg.loop_r_imag(2.0) == pytest.approx(0.5)
    assert cfg.loop_r0() == pytest.approx(1.0)


def test_composed_s_matrix_unitarity():
    cfg = CavityConfig(lorentzian_mirror(0.8), lorentzian_mirror(2.3), 1.3)
    for w in (0.017, 0.4, 3.1, 47.0):
        cm = cavity_matrices(cfg, w)
        assert np.max(np.abs(cm.S.conj().T @ cm.S - np.eye(2))) < 1e-12


def test_airy_factor_matches_resonance_matrix():
    cfg = CavityConfig(lorentzian_mirror(0.8), lorentzian_mirror(2.3), 1.3)
    for w in (0.017, 0.4, 3.1, 47.0):
        cm = cavity_matrices(cfg, w)
        quad_form = 0.5 * np.sum(np.abs(cm.R) ** 2)
        assert airy_factor(cfg, w) == pytest.approx(quad_form, abs=1e-13)


def test_airy_factor_transparent_limit():
    # far above both cutoffs the cavity stops filtering
    cfg = CavityConfig(lorentzian_mirror(0.5), lorentzian_mirror(0.5), 1.0)
    assert airy_factor(cfg, 500.0) == pytest.approx(1.0, abs=1e-4)


def test_det_s_phase_identity():
    cfg = CavityConfig(lorentzian_mirror(0.8), lorentzian_mirror(2.3), 1.3)
    for w in (0.017, 0.4, 3.1, 47.0):
        cm = cavity_matrices(cfg, w)
        det1 = complex(cfg.mirror1.s_real(w)) ** 2 - complex(
            cfg.mirror1.r_real(w)) ** 2
        det2 = complex(cfg.mirror2.s_real(w)) ** 2 - complex(
            cfg.mirror2.r_real(w)) ** 2
        rhs = det1 * det2 * np.exp(1j * phase_shift(cfg, w))
        assert abs(np.linalg.det(cm.S) - rhs) < 1e-12


def test_phase_shift_series_matches_principal_branch():
    # strong but sub-critical loop: the series route and the closed form
    # must agree where both apply
    cfg = CavityConfig(lorentzian_mirror(40.0), lorentzian_mirror(40.0), 1.0)
    for w in (0.9, 2.7, 11.0):
        r = complex(cfg.loop_r_real(w))
        z = r * np.exp(2j * w * cfg.q)
        assert abs(z) < 1.0
        assert phase_shift(cfg, w) == pytest.approx(
            -2.0 * float(np.angle(1.0 - z)), abs=1e-11)


def _roundtrip_phase_series(z):
    """Reference phase shift: the roundtrip series sum_l (2/l) Im[z^l].

    Vectorized over z; 4000 terms leave a tail below 1e-19 for |z| <= 0.99.
    """
    ells = np.arange(1, 4001)
    powers = np.cumprod(np.broadcast_to(z[:, None], (z.size, ells.size)),
                        axis=1)
    return 2.0 * np.sum(powers.imag / ells, axis=1)


def test_phase_shift_matches_roundtrip_series():
    ws = np.linspace(0.05, 60.0, 120)
    for cfg in (CavityConfig(lorentzian_mirror(40.0), lorentzian_mirror(40.0),
                             1.0),
                CavityConfig(lorentzian_mirror(1.0), lorentzian_mirror(3.0),
                             0.7)):
        z = np.array([complex(cfg.loop_r_real(w)) * np.exp(2j * w * cfg.q)
                      for w in ws])
        keep = np.abs(z) <= 0.99
        assert keep.sum() >= 100
        got = np.array([phase_shift(cfg, w) for w in ws[keep]])
        ref = _roundtrip_phase_series(z[keep])
        assert np.max(np.abs(got - ref)) <= 1e-12


def test_phase_derivative_decomposition_sums_to_derivative():
    cfg = CavityConfig(lorentzian_mirror(1.0), lorentzian_mirror(3.0), 0.7)
    for w in (0.11, 0.9, 4.2, 19.0):
        airy, delay, modulus = phase_shift_derivative_decomposition(cfg, w)
        h = 1e-6 * w
        fd = (phase_shift(cfg, w + h) - phase_shift(cfg, w - h)) / (2.0 * h)
        assert airy + delay + modulus == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_validate_model_lorentzian_passes():
    rep = validate_model(lorentzian_mirror(1.0), np.geomspace(1e-2, 1e2, 31))
    assert rep["passed"]
    assert all(c["passed"] for c in rep["checks"].values())


def test_validate_model_perfect_mirror_waives_transparency():
    # the ideal limit never becomes transparent; that is reported as a
    # warning, not a failure of the model contract
    rep = validate_model(perfect_mirror(), np.geomspace(1e-2, 1e2, 11))
    assert rep["passed"]
    assert not rep["checks"]["transparency"]["passed"]
    assert rep["warnings"]


def test_validate_model_flags_bad_table():
    xi = np.geomspace(1e-3, 10.0, 50)
    m = tabulated_mirror(xi, np.full(xi.shape, -0.9))
    rep = validate_model(m, np.geomspace(1e-2, 5.0, 21))
    assert not rep["checks"]["transparency"]["passed"]
