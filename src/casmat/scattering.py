"""Mirror scattering models and two-mirror cavity composition.

A mirror is a frequency-dependent scatterer with reflection amplitude r and
transmission amplitude s forming a unitary, causal S matrix that becomes
transparent at high frequency.  Three concrete families are provided:

* perfect      : r = -1, s = 0 at every frequency (the ideal limit),
* lorentzian   : single-pole causal model r[w] = -W/(W - i w) with cutoff W,
* tabulated    : imaginary-axis samples of r[i xi] from a text file.

Two mirrors at separation q compose into a global scattering matrix S, a
resonance matrix R mapping input to intracavity fields, the Airy factor g
(intracavity/vacuum spectral weight), and the total phase shift Delta whose
frequency integral carries the Casimir energy.  The coordinate convention
places mirror 1 at the origin and mirror 2 at q.
"""

import numpy as np
from scipy.interpolate import PchipInterpolator

__all__ = [
    "ModelCapabilityError",
    "MirrorModel",
    "CavityConfig",
    "CavityMatrices",
    "perfect_mirror",
    "lorentzian_mirror",
    "tabulated_mirror",
    "load_tabulated_mirror",
    "validate_model",
    "cavity_matrices",
    "airy_factor",
    "phase_shift",
    "phase_shift_derivative_decomposition",
]


class ModelCapabilityError(Exception):
    """A mirror model does not support the requested evaluation axis."""


class MirrorModel:
    """Scattering amplitudes of a single mirror.

    Not constructed directly; use perfect_mirror, lorentzian_mirror,
    tabulated_mirror or load_tabulated_mirror.  Callable fields may be None
    when the model does not support that axis; the accessor methods raise
    ModelCapabilityError in that case.

    Attributes
    ----------
    kind : str
        'perfect', 'lorentzian' or 'tabulated'.
    cutoff : float or None
        The lorentzian cutoff frequency.
    """

    def __init__(self, kind, r_real_fn=None, s_real_fn=None, r_imag_fn=None,
                 dlog_r_fn=None, cutoff=None):
        self.kind = kind
        self.cutoff = cutoff
        self._r_real = r_real_fn
        self._s_real = s_real_fn
        self._r_imag = r_imag_fn
        self._dlog_r = dlog_r_fn

    def _require(self, fn, axis):
        if fn is None:
            raise ModelCapabilityError(
                "%s mirror model does not provide %s" % (self.kind, axis))
        return fn

    def r_real(self, omega):
        """Reflection amplitude r[omega] on the real frequency axis."""
        return self._require(self._r_real, "real-axis amplitudes")(omega)

    def s_real(self, omega):
        """Transmission amplitude s[omega] on the real frequency axis."""
        return self._require(self._s_real, "real-axis amplitudes")(omega)

    def r_imag(self, xi):
        """Reflection amplitude r[i xi] on the imaginary axis (real-valued)."""
        return self._require(self._r_imag, "imaginary-axis amplitudes")(xi)

    def dlog_r_real(self, omega):
        """Logarithmic derivative d/domega log r[omega].

        Analytic: every model with real-axis amplitudes supplies it.
        """
        return self._require(self._dlog_r, "real-axis amplitudes")(omega)

    @property
    def has_real_axis(self):
        return self._r_real is not None

    @property
    def has_time_kernel(self):
        return self.kind in ("perfect", "lorentzian")


def perfect_mirror():
    """Perfectly reflecting mirror: r = -1, s = 0 at every frequency.

    The time kernel is the distributional limit -delta(t); engines treat it
    specially (delays vanish).
    """
    return MirrorModel(
        "perfect",
        r_real_fn=lambda w: np.full_like(np.asarray(w, dtype=complex), -1.0),
        s_real_fn=lambda w: np.zeros_like(np.asarray(w, dtype=complex)),
        r_imag_fn=lambda xi: np.full_like(np.asarray(xi, dtype=float), -1.0),
        dlog_r_fn=lambda w: np.zeros_like(np.asarray(w, dtype=complex)),
    )


def lorentzian_mirror(cutoff):
    """Single-pole causal mirror with reflection bandwidth `cutoff`.

    r[w] = -cutoff/(cutoff - i w), s[w] = -i w/(cutoff - i w); on the
    imaginary axis r[i xi] = -cutoff/(cutoff + xi), and the time kernel is
    r(t) = -cutoff e^{-cutoff t}.  Unitarity and reality hold exactly;
    transparency is marginal (w |r[w]| -> cutoff, not 0), which is why the
    force engines only ever evaluate this model off the real axis.
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    W = float(cutoff)
    return MirrorModel(
        "lorentzian",
        r_real_fn=lambda w: -W / (W - 1j * np.asarray(w)),
        s_real_fn=lambda w: -1j * np.asarray(w) / (W - 1j * np.asarray(w)),
        r_imag_fn=lambda xi: -W / (W + np.asarray(xi, dtype=float)),
        dlog_r_fn=lambda w: 1j / (W - 1j * np.asarray(w)),
        cutoff=W,
    )


def tabulated_mirror(xi, r, units="absolute", q=None):
    """Mirror defined by imaginary-axis samples r[i xi].

    Parameters
    ----------
    xi : array_like
        Strictly increasing sample abscissae.
    r : array_like
        Real sample values, |r| <= 1.
    units : {'absolute', 'q-relative'}
        'q-relative' means the abscissae are xi*q (dimensionless); a
        separation q must then be supplied to convert.
    q : float, optional
        Separation used for the q-relative conversion.

    Notes
    -----
    Interpolation is monotone cubic (PCHIP); outside the table the nearest
    sample value is held constant, so the table should extend to roughly
    40/q where the force integrands have decayed.  Only imaginary-axis
    evaluations are available for tabulated mirrors.
    """
    xi = np.asarray(xi, dtype=float)
    r = np.asarray(r, dtype=float)
    if xi.ndim != 1 or xi.size < 2:
        raise ValueError("need at least two samples")
    if np.any(np.diff(xi) <= 0):
        raise ValueError("sample abscissae must be strictly increasing")
    if np.any(np.abs(r) > 1.0):
        raise ValueError("|r[i xi]| <= 1 violated by the table")
    if units == "q-relative":
        if q is None or q <= 0:
            raise ValueError("q-relative table needs a positive separation q")
        xi = xi / q
    elif units != "absolute":
        raise ValueError("units must be 'absolute' or 'q-relative'")
    interp = PchipInterpolator(xi, r, extrapolate=False)
    lo, hi = xi[0], xi[-1]
    rlo, rhi = r[0], r[-1]

    def r_imag(x):
        x = np.asarray(x, dtype=float)
        out = interp(np.clip(x, lo, hi))
        out = np.where(x <= lo, rlo, out)
        out = np.where(x >= hi, rhi, out)
        return out if out.ndim else float(out)

    return MirrorModel("tabulated", r_imag_fn=r_imag)


def load_tabulated_mirror(path, q=None):
    """Read a tabulated mirror from a two-column text file.

    Lines of "xi r" pairs; '#' starts a comment; an optional header line
    "units: absolute" or "units: q-relative" selects the abscissa
    convention (default absolute).
    """
    units = "absolute"
    xs, rs = [], []
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
    return tabulated_mirror(xs, rs, units=units, q=q)


class CavityConfig:
    """Two mirrors at separation q, at temperature T (k_B = 1).

    Mirror 1 sits at the origin, mirror 2 at q > 0; the loop reflectivity
    r[w] = r1[w] r2[w] controls every cavity quantity.
    """

    def __init__(self, mirror1, mirror2, q, temperature=0.0):
        if q <= 0:
            raise ValueError("separation q must be positive")
        if temperature < 0:
            raise ValueError("temperature must be nonnegative")
        self.mirror1 = mirror1
        self.mirror2 = mirror2
        self.q = float(q)
        self.temperature = float(temperature)

    def loop_r_imag(self, xi):
        """Loop reflectivity r1[i xi] r2[i xi] (real)."""
        return self.mirror1.r_imag(xi) * self.mirror2.r_imag(xi)

    def loop_r0(self):
        """Zero-frequency loop reflectivity r0 = r1[0] r2[0]."""
        return float(self.loop_r_imag(0.0))

    def loop_r_real(self, omega):
        """Loop reflectivity r1[w] r2[w] on the real axis (complex)."""
        return self.mirror1.r_real(omega) * self.mirror2.r_real(omega)


class CavityMatrices:
    """Global scattering matrix S, resonance matrix R and denominator d."""

    def __init__(self, S, R, d):
        self.S = S
        self.R = R
        self.d = d


def cavity_matrices(cfg, omega):
    """Compose the two-mirror cavity at real frequency omega.

    Returns the CavityMatrices holding the 2x2 global scattering matrix S
    (outgoing fields from incoming), the 2x2 resonance matrix R
    (intracavity fields from incoming) and the resonance denominator
    d = 1 - r1 r2 e^{2 i w q}.

    Raises ValueError when the cavity is driven at an exact resonance pole
    (|d| < 1e-14).
    """
    r1 = complex(cfg.mirror1.r_real(omega))
    s1 = complex(cfg.mirror1.s_real(omega))
    r2 = complex(cfg.mirror2.r_real(omega))
    s2 = complex(cfg.mirror2.s_real(omega))
    e2 = np.exp(2j * omega * cfg.q)
    d = 1.0 - r1 * r2 * e2
    if abs(d) < 1e-14:
        raise ValueError("cavity on resonance: |d| < 1e-14")
    S = np.array([
        [s1 * s2 / d, r2 / e2 + s2 * s2 * r1 / d],
        [r1 + s1 * s1 * r2 * e2 / d, s1 * s2 / d],
    ])
    R = np.array([
        [s1 / d, s2 * r1 / d],
        [s1 * r2 * e2 / d, s2 / d],
    ])
    return CavityMatrices(S, R, d)


def airy_factor(cfg, omega):
    """Airy factor g[w] = (1 - |r|^2)/|1 - r e^{2iwq}|^2, r = r1 r2.

    The ratio of intracavity to free-vacuum spectral energy weight:
    above 1 inside Airy peaks, below 1 outside, identically 1 for
    transparent mirrors.  Equals half the sum of the squared moduli of the
    four resonance-matrix entries (tested identity).
    """
    r = complex(cfg.loop_r_real(omega))
    z = r * np.exp(2j * omega * cfg.q)
    den = abs(1.0 - z) ** 2
    if den < 1e-28:
        raise ValueError("cavity on resonance: |1 - r e^{2iwq}| ~ 0")
    return (1.0 - abs(r) ** 2) / den


def phase_shift(cfg, omega):
    """Total scattering phase shift Delta[w] of the mirror pair.

    Delta = -2 arg(1 - r e^{2iwq}) on the branch continuously connected to
    Delta[0] = 0.  For |r e^{2iwq}| < 1, Re(1 - r e^{2iwq}) > 0, so the
    principal branch already is that branch; it equals the roundtrip series
    sum_l (2/l) Im[(r e^{2iwq})^l] without summing it.
    """
    r = complex(cfg.loop_r_real(omega))
    z = r * np.exp(2j * omega * cfg.q)
    if abs(z) >= 1.0:
        raise ValueError("phase shift undefined at |r e^{2iwq}| >= 1")
    return float(-2.0 * np.angle(1.0 - z))


def phase_shift_derivative_decomposition(cfg, omega):
    """Split d(Delta)/d(omega) into airy, delay and modulus pieces.

    Writing the loop reflectivity as r = rho e^{i delta} and the roundtrip
    phase as theta = 2 w q + delta, the frequency derivative of the phase
    shift separates into

        airy    = -(1 - g) * 2 q
        delay   = -(1 - g) * d(delta)/dw
        modulus = 2 * d(rho)/dw * sin(theta) / |1 - r e^{2iwq}|^2

    whose sum is d(Delta)/dw; g is the Airy factor.  The first piece is the
    pure cavity-length contribution, the second the reflection-delay
    dispersion, the third the reflectivity-modulus dispersion.  Returns the
    tuple (airy, delay, modulus).
    """
    r = complex(cfg.loop_r_real(omega))
    rho = abs(r)
    if rho == 0.0:
        return 0.0, 0.0, 0.0
    if rho >= 1.0 + 1e-15:
        raise ValueError("decomposition requires |r| <= 1")
    dlog = complex(cfg.mirror1.dlog_r_real(omega)) + complex(
        cfg.mirror2.dlog_r_real(omega))
    delta = np.angle(r)
    theta = 2.0 * omega * cfg.q + delta
    z = r * np.exp(2j * omega * cfg.q)
    den = abs(1.0 - z) ** 2
    if den < 1e-28:
        raise ValueError("cavity on resonance")
    g = (1.0 - rho**2) / den
    ddelta = dlog.imag
    drho = rho * dlog.real
    airy = -(1.0 - g) * 2.0 * cfg.q
    delay = -(1.0 - g) * ddelta
    modulus = 2.0 * drho * np.sin(theta) / den
    return airy, delay, modulus


def validate_model(m, sample_grid, transparency_threshold=0.1):
    """Check a mirror model against the admissibility conditions.

    Parameters
    ----------
    m : MirrorModel
    sample_grid : array_like
        Positive frequencies at which the real-axis conditions are probed;
        the same magnitudes are reused as imaginary-axis points.
    transparency_threshold : float
        Pass level for |r| at the largest grid frequency.

    Returns
    -------
    dict
        {'checks': {name: {'passed': bool or None, 'residual': float or
        None}}, 'warnings': [str], 'passed': bool}.  A check that cannot
        run on this model (e.g. real-axis conditions for a tabulated
        mirror) has passed None and is not counted against 'passed'.
        Transparency failure is reported but carried as a warning, not a
        failure: the perfect mirror and the marginal lorentzian are
        admitted limits whose force evaluations avoid the real axis.
    """
    grid = np.asarray(sample_grid, dtype=float)
    if grid.size == 0 or np.any(grid <= 0):
        raise ValueError("sample_grid must be non-empty and positive")
    checks = {}
    warnings = []

    if m.has_real_axis:
        r_p = np.asarray(m.r_real(grid))
        s_p = np.asarray(m.s_real(grid))
        r_m = np.asarray(m.r_real(-grid))
        s_m = np.asarray(m.s_real(-grid))
        reality = max(np.max(np.abs(r_m - np.conj(r_p))),
                      np.max(np.abs(s_m - np.conj(s_p))))
        checks["reality"] = {"passed": bool(reality <= 1e-12),
                             "residual": float(reality)}
        unit1 = np.max(np.abs(np.abs(s_p) ** 2 + np.abs(r_p) ** 2 - 1.0))
        unit2 = np.max(np.abs(s_p * np.conj(r_p) + r_p * np.conj(s_p)))
        unitarity = max(unit1, unit2)
        checks["unitarity"] = {"passed": bool(unitarity <= 1e-12),
                               "residual": float(unitarity)}
        r_top = abs(complex(np.asarray(m.r_real(grid.max())).reshape(-1)[0]))
        checks["transparency"] = {
            "passed": bool(r_top <= transparency_threshold),
            "residual": float(r_top),
        }
        if not checks["transparency"]["passed"]:
            warnings.append(
                "transparency fails at the top frequency (|r| = %.3g): "
                "ideal-limit model; real-axis force integrals are not used"
                % r_top)
        if m.kind == "lorentzian":
            warnings.append(
                "marginal transparency: w |r[w]| approaches the cutoff "
                "instead of 0; forces for this model are evaluated on the "
                "imaginary axis or in the time domain only")
    else:
        checks["reality"] = {"passed": None, "residual": None}
        checks["unitarity"] = {"passed": None, "residual": None}
        checks["transparency"] = {"passed": None, "residual": None}

    raw = np.asarray(m.r_imag(grid))
    imag_res = float(np.max(np.abs(np.imag(raw)))) if np.iscomplexobj(raw) else 0.0
    checks["imag_axis_real"] = {"passed": bool(imag_res <= 1e-14),
                                "residual": imag_res}
    ri = np.real(raw).astype(float)
    bound = float(np.max(np.abs(ri)) - 1.0)
    checks["imag_axis_bound"] = {"passed": bool(bound <= 1e-12),
                                 "residual": float(max(bound, 0.0))}

    hard = [c for name, c in checks.items()
            if name != "transparency" and c["passed"] is not None]
    passed = all(c["passed"] for c in hard)
    return {"checks": checks, "warnings": warnings, "passed": passed}
