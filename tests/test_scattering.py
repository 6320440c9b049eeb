"""Mirror models, cavity composition and scattering identities."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casmat.casimir4d import PlanarMirrorModel
from casmat.scattering import (CavityConfig, MirrorModel,
                               ModelCapabilityError, _parse_table, airy_factor,
                               cavity_matrices, load_tabulated_mirror,
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


def _loop_parse(path):
    """The reader's former line-by-line loop: the reference for the parse."""
    units, xs, rs = "absolute", [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.lower().startswith("units:"):
                units = line.split(":", 1)[1].strip().lower()
                continue
            cols = line.split()
            if len(cols) != 2:
                raise ValueError("expected two columns, got %r" % line)
            xs.append(float(cols[0]))
            rs.append(float(cols[1]))
    return units, xs, rs


_ROWS = ["%r %r" % (float(a), float(-1.0 / (1.0 + a)))
         for a in np.geomspace(1e-3, 1e3, 60)]


# (table text, text the loop reads to the same samples)
_LAYOUTS = {
    "crlf": ("# samples\r\n" + "\r\n".join(_ROWS) + "\r\n", None),
    "blank-and-indented-comments": (
        "\n".join(_ROWS[:20] + ["", "   # indented", "\t", "  "] + _ROWS[20:]
                  + ["", "  # last"]), None),
    "header-after-data": ("\n".join(_ROWS + ["  Units: Q-Relative  "]), None),
    "inline-comments": (
        "\n".join(["%s  # knot %d" % (row, i) for i, row in enumerate(_ROWS)]
                  + ["units: q-relative # after the data", "#"]),
        "\n".join(_ROWS + ["units: q-relative"])),
}


@pytest.mark.parametrize("layout", list(_LAYOUTS))
def test_table_parse_matches_the_line_loop(layout, tmp_path):
    text, reference = _LAYOUTS[layout]
    path, ref = tmp_path / "mirror.tab", tmp_path / "reference.tab"
    path.write_bytes(text.encode())
    ref.write_bytes((reference or text).encode())
    with open(path) as fh:
        units, xi, r = _parse_table(fh.read())
    assert (units, xi.tolist(), r.tolist()) == _loop_parse(ref)
    assert not xi.flags.writeable and not r.flags.writeable
    want = tabulated_mirror(*_loop_parse(ref)[1:], units=units, q=2.0)
    got = load_tabulated_mirror(str(path), q=2.0)
    probe = np.geomspace(1e-4, 1e4, 97)
    assert got.knots.tolist() == want.knots.tolist()
    assert got.r_imag(probe).tolist() == want.r_imag(probe).tolist()


@pytest.mark.parametrize("text, message", [
    ("1.0 -0.5\n2.0 -0.4 0.1\n3.0\n",
     "expected two columns, got '2.0 -0.4 0.1'"),
    ("0.001 -0.5  # first knot\n2.0  # r went missing\n3.0\n",
     "expected two columns, got '2.0'"),
    ("units: absolute\nunits -0.5\n", "could not convert string to float: "
     "'units'"),
    ("1.0 -0.5\n2.0 abc\n", "could not convert string to float: 'abc'"),
    ("# no samples\n\n", "need at least two samples"),
    ("units: furlongs\n1.0 -0.5\n2.0 -0.4\n",
     "units must be 'absolute' or 'q-relative'"),
], ids=["three-columns", "one-column-before-comment", "units-without-colon",
        "not-a-number", "no-samples", "unknown-units"])
def test_malformed_table_files_are_refused(text, message, tmp_path):
    path = tmp_path / "mirror.tab"
    path.write_text(text)
    for _ in range(2):  # a refused table is not remembered as a good one
        with pytest.raises(ValueError) as info:
            load_tabulated_mirror(str(path), q=1.0)
        assert str(info.value) == message


def _write_samples(path, r0, header=""):
    # fixed-width rows: tables of different r0 have the same size
    xi = np.geomspace(1e-3, 1e3, 50)
    path.write_text(header + "".join("%.6e %.6e\n" % (a, r0 / (1.0 + a))
                                     for a in xi))
    return np.loadtxt(path, comments=("#", "units:"), unpack=True)


def test_a_table_is_parsed_once_per_content(tmp_path):
    path = tmp_path / "mirror.tab"
    xi, r = _write_samples(path, -0.5)
    first = load_tabulated_mirror(str(path))
    assert load_tabulated_mirror(str(path)) is first
    want = tabulated_mirror(xi, r)
    probe = np.geomspace(1e-4, 1e4, 97)
    assert first.knots.tolist() == want.knots.tolist()
    assert first.r_imag(probe).tolist() == want.r_imag(probe).tolist()
    # an absolute table's model does not depend on q
    assert load_tabulated_mirror(str(path), q=0.3) is first
    assert load_tabulated_mirror(str(path), q=3.0) is first
    # rewritten in place to the same size, then replaced: new values
    size = path.stat().st_size
    _, r = _write_samples(path, -0.7)
    assert path.stat().st_size == size
    assert load_tabulated_mirror(str(path)).r_imag(xi).tolist() == r.tolist()
    _, r = _write_samples(tmp_path / "next.tab", -0.9)
    os.replace(tmp_path / "next.tab", path)
    assert load_tabulated_mirror(str(path)).r_imag(xi).tolist() == r.tolist()
    # back to the first content: the first model again
    _write_samples(path, -0.5)
    assert load_tabulated_mirror(str(path)) is first


def test_a_q_relative_table_has_one_model_per_q(tmp_path):
    path = tmp_path / "mirror.tab"
    xi, r = _write_samples(path, -0.5, header="units: q-relative\n")
    with pytest.raises(ValueError, match="needs a positive separation"):
        load_tabulated_mirror(str(path))
    near = load_tabulated_mirror(str(path), q=2.0)
    assert load_tabulated_mirror(str(path), q=2.0) is near
    far = load_tabulated_mirror(str(path), q=4.0)
    assert far is not near
    assert near.knots.tolist() == (xi / 2.0).tolist()
    assert far.knots.tolist() == (xi / 4.0).tolist()
    assert far.r_imag(xi / 4.0).tolist() == r.tolist()


def test_knots_are_the_table_abscissae_after_conversion():
    xi = np.geomspace(1e-3, 1e3, 50)
    tab = tabulated_mirror(xi, -1.0 / (1.0 + xi), units="q-relative", q=2.0)
    assert tab.knots.tolist() == (xi / 2.0).tolist()
    assert not tab.knots.flags.writeable
    assert lorentzian_mirror(1.0).knots == perfect_mirror().knots == ()
    assert CavityConfig(perfect_mirror(), lorentzian_mirror(1.0),
                        1.0).knots == ()
    assert CavityConfig(tab, perfect_mirror(), 1.0).knots is tab.knots
    assert CavityConfig(tab, tab, 1.0).knots is tab.knots
    other = tabulated_mirror([0.5, 1.0, 4.0], [-0.9, -0.5, -0.1])
    assert CavityConfig(tab, other, 1.0).knots.tolist() == sorted(
        set(tab.knots.tolist()) | {0.5, 1.0, 4.0})
    planar = PlanarMirrorModel(tab)
    assert CavityConfig(planar, planar, 1.0).knots is tab.knots


def test_cavity_config_validation():
    m = perfect_mirror()
    with pytest.raises(ValueError):
        CavityConfig(m, m, 0.0)
    with pytest.raises(ValueError):
        CavityConfig(m, m, -1.0)
    with pytest.raises(ValueError):
        CavityConfig(m, m, 1.0, temperature=-0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lorentzian_mirror,
    lambda x: CavityConfig(perfect_mirror(), perfect_mirror(), x),
    lambda x: CavityConfig(perfect_mirror(), perfect_mirror(), 1.0,
                           temperature=x),
], ids=["cutoff", "cavity-q", "cavity-T"])
def test_non_finite_parameters_are_rejected(call, bad):
    with pytest.raises(ValueError):
        call(bad)


def test_loop_reflectivity():
    cfg = CavityConfig(perfect_mirror(), lorentzian_mirror(2.0), 1.0)
    # (-1) * (-2/(2+xi)) is positive: an attractive pair
    assert cfg.loop_r_imag(2.0) == pytest.approx(0.5)
    assert cfg.loop_r0() == pytest.approx(1.0)


def test_shared_mirror_loop_is_its_square_bit_for_bit():
    # a mirror at both ends is evaluated once and squared, which is the
    # product of two evaluations of equal tables, bit for bit
    xi = np.geomspace(1e-3, 1e3, 101)
    r = -0.3 / (0.3 + xi)
    shared = tabulated_mirror(xi, r)
    xs = np.geomspace(1e-4, 1e4, 999)
    once = CavityConfig(shared, shared, 0.7).loop_r_imag(xs)
    twice = CavityConfig(tabulated_mirror(xi, r), tabulated_mirror(xi, r),
                         0.7).loop_r_imag(xs)
    assert once.tobytes() == twice.tobytes()
    assert CavityConfig(shared, shared, 0.7).loop_r0() == r[0] * r[0]


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


def _table_file(tmp_path, text):
    path = tmp_path / "mirror.tab"
    path.write_text(text)
    return str(path)


_RESONANT = CavityConfig(perfect_mirror(), perfect_mirror(), 1.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda p: tabulated_mirror([1.0], [-0.5]), ValueError,
     "need at least two samples"),
    (lambda p: tabulated_mirror([1.0, 1.0], [-0.5, -0.4]), ValueError,
     "sample abscissae must be strictly increasing"),
    (lambda p: tabulated_mirror([1.0, 2.0], [-1.5, -0.4]), ValueError,
     "|r[i xi]| <= 1 violated by the table"),
    (lambda p: tabulated_mirror([1.0, 2.0], [-0.5, -0.4], units="furlongs"),
     ValueError, "units must be 'absolute' or 'q-relative'"),
    (lambda p: load_tabulated_mirror(_table_file(p, "1.0 -0.5\n2.0\n")),
     ValueError, "expected two columns, got '2.0'"),
    (lambda p: tabulated_mirror([1.0, 2.0], [-0.5, -0.4]).r_real(1.0),
     ModelCapabilityError,
     "tabulated mirror model does not provide real-axis amplitudes"),
    (lambda p: cavity_matrices(_RESONANT, math.pi), ValueError,
     "cavity on resonance: |d| < 1e-14"),
    (lambda p: airy_factor(_RESONANT, math.pi), ValueError,
     "cavity on resonance: |1 - r e^{2iwq}| ~ 0"),
    (lambda p: phase_shift(_RESONANT, 0.3), ValueError,
     "phase shift undefined at |r e^{2iwq}| >= 1"),
    (lambda p: phase_shift_derivative_decomposition(_RESONANT, math.pi),
     ValueError, "cavity on resonance"),
], ids=["one-sample", "not-increasing", "above-one", "units", "one-column",
        "table-real-axis", "matrices-resonance", "airy-resonance",
        "phase-unit-loop", "decomposition-resonance"])
def test_refusals_keep_their_messages(call, error, message, tmp_path):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert str(info.value) == message


def test_decomposition_of_a_transparent_pair_is_zero():
    clear = MirrorModel("transparent", r_real_fn=lambda w: 0j,
                        s_real_fn=lambda w: 1 + 0j)
    cfg = CavityConfig(clear, clear, 1.0)
    assert phase_shift_derivative_decomposition(cfg, 0.7) == (0.0, 0.0, 0.0)
