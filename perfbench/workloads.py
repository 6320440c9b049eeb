"""The benchmark's four workloads, generated from a seed.

A workload is a list of cases.  A case is one evaluation: one call into
casmat (a library function, or one in-process ``cli.main`` call), timed by
run.py, plus the reference values its results are checked against.
References come from `oracles` and are computed here, at set-up, never in
the timed loop.

casmat functions are looked up on their modules at call time (for instance
``m.casimir2d.force_roundtrip_time``), so the tracer's wrappers, installed
on those module attributes, see every call.

Parameters are drawn by stratification (see `stratified`).  Evaluation
cost and adaptive error estimates depend steeply on some inputs (a split
cutoff pair, a small T q), so a free draw would change a run's mix of cheap
and expensive cases from seed to seed; with every seed covering each range
the same way, the values change from seed to seed but the timings and error
bars stay steady.
"""

import contextlib
import csv
import io
import json
import math
import re
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

import oracles as O


@dataclass
class Result:
    """One value produced by casmat, as the benchmark reads it back."""
    value: float
    err: Optional[float]        # reported error bar; None when none is given
    converged: Optional[bool]   # None when the function reports no flag
    read_err: float = 0.0       # rounding of a value read back from text


@dataclass
class Case:
    kind: str
    call: Callable[[], object]            # timed
    parse: Callable[[object], list]       # raw output -> [Result]
    refs: list                            # [(value, ref_err)], one per Result
    params: tuple                         # inputs, for the log and digests


@dataclass
class Workload:
    """How to build a workload's cases; why each exists: README.md."""
    make: Callable        # (m, rng, workdir) -> [Case], one input set
    sets: int             # input sets a run times, each drawn afresh


# share of its slice over which a draw may move around the slice's centre
_JITTER = 0.02


def stratified(rng, n, lo, hi, log=True, stride=1, ends=False):
    """n draws, one in each of n equal slices of [lo, hi].

    Slice i * stride (mod n) comes i-th; strides coprime to n pair the
    slices of different quantities in different fixed orders.  With ends,
    the draws sit at the n evenly spaced points from lo to hi instead, so
    that both ends of the range are reached."""
    jitter = _JITTER * (rng.random(n) - 0.5)
    if ends and n > 1:
        u = np.clip((np.arange(n) + jitter) / (n - 1), 0.0, 1.0)
    else:
        u = (np.arange(n) + 0.5 + jitter) / n
    if log:
        v = np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    else:
        v = lo + u * (hi - lo)
    return [float(v[(i * stride) % n]) for i in range(n)]


def _library(raw):
    """Result of a casmat ForceResult / EnergyResult."""
    return [Result(float(raw.value), float(raw.error_estimate),
                   bool(raw.converged))]


# ------------------------------------------------------------------ the CLI

def cli_call(m, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = m.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def parse_cli_records(raw, fmt):
    """Read back the records of a csv, json or plain CLI evaluation."""
    code, out, err = raw
    if code not in (0, 4):
        raise RuntimeError("cli exit %s: %s" % (code, err.strip()))
    if fmt == "json":
        rows = [(r["value"], r["error"], r["converged"])
                for r in json.loads(out)]
    elif fmt == "csv":
        table = list(csv.reader(io.StringIO(out)))
        rows = [(r[3], r[4], r[6] == "True") for r in table[1:]]
    else:
        lines = out.splitlines()
        header = lines[0]
        names = header.split()
        starts = [m.start() for m in re.finditer(r"\S+", header)]
        cols = {}
        for line in lines[1:]:
            for i, n in enumerate(names):
                end = starts[i + 1] if i + 1 < len(names) else None
                cols.setdefault(n, []).append(line[starts[i]:end].strip())
        rows = [(v, e, c == "True") for v, e, c in
                zip(cols["value"], cols["error"], cols["converged"])]
    results = [Result(float(v), float(e), bool(c),
                      _printed_resolution(float(v)) if fmt == "plain" else 0.0)
               for v, e, c in rows]
    if (code == 4) != any(not r.converged for r in results):
        raise RuntimeError("exit code %d disagrees with the records" % code)
    return results


def _printed_resolution(v):
    """Half a unit in the last digit of the plain table's %.12g value."""
    if v == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(v))) - 11)


def parse_cli_validate(raw):
    code, out, _ = raw
    ok = code == 0 and out.rstrip().endswith("model ok")
    return [Result(1.0 if ok else 0.0, None, None)]


def _write_table(workdir, w):
    """Tabulated single-pole mirror r[i xi] = -w/(w + xi) on a log grid.

    Below its first knot the mirror holds r there, so the force integrand
    drops to 0 on [0, xi_1].  casmat's adaptive quadrature does not sample
    that interval: with xi_1 = 1e-6 it misses the dip in every force2d case
    (3e-7 relative, 300 times its error bar, an error-bar miss every run);
    with xi_1 = 1e-3 it missed it in some cases only, by up to 3e-4
    relative, which the checks count as failed."""
    xs = np.geomspace(1e-6, 1e4, 400)
    rs = -w / (w + xs)
    path = workdir / "mirror.tab"
    with open(path, "w") as fh:
        fh.write("# r[i xi] samples of a single-pole mirror, cutoff %r\n" % w)
        for x, r in zip(xs, rs):
            fh.write("%r %r\n" % (float(x), float(r)))
    return str(path), ("tabulated", xs, rs)


_FORMATS = ("csv", "json", "plain")
_IMAG_OBSERVABLES = ("force2d", "force4d", "energy2d", "energy4d")


def _cli_eval(m, observable, model, q, fmt, mirror_args, loop):
    argv = [observable] + mirror_args + ["--method", "imag-axis",
                                         "--q", repr(q), "--output", fmt]
    ref = O.imag_axis_t0(observable, loop, q)
    return Case("cli/%s/%s" % (observable, model),
                lambda: cli_call(m, argv),
                lambda raw: parse_cli_records(raw, fmt), [ref], tuple(argv))


def make_cli_imag_axis(m, rng, workdir):
    """Every T = 0 observable on each mirror model, two short sweeps, the
    closed-form routes and validate-model."""
    n = len(_IMAG_OBSERVABLES)
    qs = stratified(rng, n, 0.1, 10.0)
    ws = stratified(rng, n, 0.3, 3.0, stride=3)
    ws2 = stratified(rng, n, 0.3, 3.0)
    table, table_loop = _write_table(workdir,
                                     stratified(rng, 1, 0.3, 3.0)[0])
    cases = []
    k = 0
    for i, obs in enumerate(_IMAG_OBSERVABLES):
        models = (
            ("perfect", ["--model", "perfect"], ("perfect",)),
            ("lorentzian", ["--model", "lorentzian", "--omega1", repr(ws[i]),
                            "--omega2", repr(ws2[i])],
             ("lorentzian", ws[i], ws2[i])),
            ("tabulated", ["--model", "tabulated", "--table", table],
             table_loop),
        )
        for model, margs, loop in models:
            cases.append(_cli_eval(m, obs, model, qs[i], _FORMATS[k % 3],
                                   margs, loop))
            k += 1

    # short sweeps over q and over the first cutoff
    w1, w2 = stratified(rng, 2, 0.3, 3.0, stride=-1)
    qa = stratified(rng, 1, 0.1, 1.0)[0]
    sweep_q = np.geomspace(qa, 10.0 * qa, 3)
    argv = ["sweep", "--command", "force2d", "--param", "q",
            "--from", repr(qa), "--to", repr(10.0 * qa), "--points", "3",
            "--spacing", "log", "--model", "lorentzian", "--omega1",
            repr(w1), "--omega2", repr(w2), "--method", "imag-axis",
            "--output", "csv"]
    refs = [O.imag_axis_t0("force2d", ("lorentzian", w1, w2), float(q))
            for q in sweep_q]
    cases.append(Case("cli/sweep-q/lorentzian", lambda: cli_call(m, argv),
                      lambda raw: parse_cli_records(raw, "csv"), refs,
                      tuple(argv)))
    q4 = stratified(rng, 1, 0.3, 3.0)[0]
    sweep_w = np.linspace(0.5, 2.5, 3)
    argv4 = ["sweep", "--command", "force4d", "--param", "omega1", "--from",
             "0.5", "--to", "2.5", "--points", "3", "--model", "lorentzian",
             "--omega1", "1", "--omega2", repr(w2), "--method", "imag-axis",
             "--q", repr(q4), "--output", "json"]
    refs4 = [O.imag_axis_t0("force4d", ("lorentzian", float(w), w2), q4)
             for w in sweep_w]
    cases.append(Case("cli/sweep-omega1/lorentzian",
                      lambda: cli_call(m, argv4),
                      lambda raw: parse_cli_records(raw, "json"), refs4,
                      tuple(argv4)))

    # closed forms: large-distance (T = 0), high-T, mode-sum oracles
    r0s = stratified(rng, 3, 0.3, 0.99, log=False)
    qc = stratified(rng, 5, 0.1, 10.0, stride=2)
    tc = stratified(rng, 1, 0.5, 5.0)[0]
    closed = [
        (["force2d", "--method", "large-distance", "--r0", repr(r0s[0]),
          "--q", repr(qc[0])], O.large_distance_t0("force2d", r0s[0], qc[0])),
        (["force4d", "--method", "large-distance", "--r0", repr(r0s[1]),
          "--q", repr(qc[1])], O.large_distance_t0("force4d", r0s[1], qc[1])),
        (["force4d", "--method", "high-T", "--r0", repr(r0s[2]), "--T",
          repr(tc / qc[2]), "--q", repr(qc[2])],
         O.classical_4d_pressure(r0s[2], qc[2], tc / qc[2])),
        (["oracle", "--dimension", "2", "--q", repr(qc[3])],
         O.imag_axis_t0("force2d", ("perfect",), qc[3])),
        (["oracle", "--dimension", "4", "--q", repr(qc[4])],
         O.imag_axis_t0("force4d", ("perfect",), qc[4])),
    ]
    for j, (argv_c, ref) in enumerate(closed):
        fmt = _FORMATS[j % 3]
        full = argv_c + ["--output", fmt]
        cases.append(Case("cli/closed-form/%s/%s" % (argv_c[0], argv_c[2]),
                          (lambda a=full: cli_call(m, a)),
                          (lambda raw, f=fmt: parse_cli_records(raw, f)),
                          [ref], tuple(full)))
    wv = stratified(rng, 1, 0.3, 3.0)[0]
    argv_v = ["validate-model", "--model", "lorentzian", "--omega1", repr(wv)]
    cases.append(Case("cli/validate-model", lambda: cli_call(m, argv_v),
                      parse_cli_validate, [(1.0, 0.0)], tuple(argv_v)))
    return cases


# ---------------------------------------------------- roundtrip series, T = 0

def _pair(m, w1, w2, planar=False):
    a = m.scattering.lorentzian_mirror(w1)
    b = m.scattering.lorentzian_mirror(w2)
    if planar:
        planar_model = m.casimir4d.PlanarMirrorModel
        a, b = planar_model(a), planar_model(b)
    return a, b


# About three pressures in four stop their series at 64 terms and cost
# about 16 ms; the rest need 128 terms or more.  With 12 pressures the
# median latency fell on the border of the two groups and moved between
# them from seed to seed (a spread of 20% over ten seeds); with 24 it falls
# inside the first group.
_RT_FORCES, _RT_PRESSURES = 6, 24


def make_roundtrip_t0(m, rng, workdir):
    """force_roundtrip_time and pressure_roundtrip evaluations."""
    cases = []
    for planar, n in ((False, _RT_FORCES), (True, _RT_PRESSURES)):
        w1s = stratified(rng, n, 0.3, 3.0)
        w2s = stratified(rng, n, 0.3, 3.0, stride=-1)
        qs = stratified(rng, n, 0.1, 1000.0, stride=5)
        for w1, w2, q in zip(w1s, w2s, qs):
            m1, m2 = _pair(m, w1, w2, planar)
            cfg = m.scattering.CavityConfig(m1, m2, q)
            loop = ("lorentzian", w1, w2)
            if planar:
                call = (lambda c=cfg: m.casimir4d.pressure_roundtrip(c))
                ref = O.imag_axis_t0("force4d", loop, q)
                kind = "pressure_roundtrip"
            else:
                call = (lambda c=cfg: m.casimir2d.force_roundtrip_time(c))
                ref = O.imag_axis_t0("force2d", loop, q)
                kind = "force_roundtrip_time"
            cases.append(Case(kind, call, _library, [ref], (w1, w2, q)))
    return cases


# ------------------------------------------------------------------ thermal

# cases of each thermal route
_THERMAL_POINTS = 4
# T q range of one more perfect-mirror force and free energy: there the
# series' roundoff, about 10-30 ulp, exceeds their error bars, which count
# only truncation (1e-27 and less), by more than the references' own bounds
_ROUNDOFF_MISS_TQ = (1.15e-3, 1.3e-3)


def make_thermal(m, rng, workdir):
    """Cases of each thermal route, T q stratified on a log scale.

    T q reaches both ends of [1e-4, 5], where the series hits its cap and
    where it is shortest, except in the lorentzian roundtrip cases: they
    start at T q = 1e-3, as one of them at T q = 1e-4 runs for about 15 s."""
    s = m.scattering
    cases = []

    def draw(lo, hi, log=True, stride=1, ends=False, n=_THERMAL_POINTS):
        return stratified(rng, n, lo, hi, log, stride, ends)

    def add(kind, call, ref, params):
        cases.append(Case(kind, call, _library, [ref], params))

    for fn, obs in (("force_roundtrip_time", "force2d"),
                    ("free_energy", "free-energy"),
                    ("internal_energy_thermal", "energy2d")):
        tqs, qs = draw(1e-4, 5.0, ends=True), draw(0.3, 3.0, stride=3)
        if obs != "energy2d":
            tqs.insert(0, draw(*_ROUNDOFF_MISS_TQ, n=1)[0])
            qs.insert(0, draw(0.3, 3.0, n=1)[0])
        for tq, q in zip(tqs, qs):
            cfg = s.CavityConfig(s.perfect_mirror(), s.perfect_mirror(), q,
                                 tq / q)
            add(fn + "/perfect",
                (lambda c=cfg, f=fn: getattr(m.casimir2d, f)(c)),
                O.matsubara_1d(obs, ("perfect",), q, tq / q), (fn, tq, q))
    for fn, obs in (("force_roundtrip_time", "force2d"),
                    ("free_energy", "free-energy")):
        for tq, q, w in zip(draw(1e-3, 5.0), draw(0.3, 3.0, stride=3),
                            draw(0.3, 3.0)):
            a, b = _pair(m, w, w)
            cfg = s.CavityConfig(a, b, q, tq / q)
            add(fn + "/lorentzian",
                (lambda c=cfg, f=fn: getattr(m.casimir2d, f)(c)),
                O.matsubara_1d(obs, ("lorentzian", w, w), q, tq / q),
                (fn, tq, q, w))
    for tq, q, r0 in zip(draw(1e-4, 5.0, ends=True), draw(0.3, 3.0, stride=3),
                         draw(0.3, 0.99, log=False, stride=3)):
        T = tq / q
        add("force_large_distance",
            (lambda a=(r0, q, T): m.casimir2d.force_large_distance(
                a[0], a[1], temperature=a[2])),
            O.matsubara_1d("force2d", ("constant", r0), q, T), (tq, q, r0))
    for i, (tq, q, r0) in enumerate(zip(
            draw(1e-4, 5.0, ends=True), draw(0.3, 3.0, stride=3),
            draw(0.3, 0.99, log=False, stride=3))):
        r0 = 1.0 if i % 2 == 0 else r0  # every other case: perfect mirrors
        T = tq / q
        add("pressure_thermal_large_distance",
            (lambda a=(r0, q, T):
             m.casimir4d.pressure_thermal_large_distance(*a)),
            O.matsubara_4d_pressure(("constant", r0), q, T), (tq, q, r0))
    for tq, q, r0 in zip(draw(1e-4, 5.0, ends=True), draw(0.3, 3.0, stride=3),
                         draw(0.3, 0.99, log=False, stride=3)):
        T = tq / q
        add("pressure_high_temperature",
            (lambda a=(r0, q, T): m.casimir4d.pressure_high_temperature(*a)),
            O.classical_4d_pressure(r0, q, T), (tq, q, r0))
    return cases


# ---------------------------------------------------------------- real axis

# relative accuracy allowed for quantities formed from 1 - |r|^2 or with
# the factor (1 - g): rounding r to double costs eps / (1 - |r|^2) there
_REAL_AXIS_SLACK = 8.0


def _one_minus_r2(w1, w2, omega):
    """1 - |r1 r2|^2 for two lorentzian mirrors, without cancellation."""
    a, b = w1 * w1, w2 * w2
    o2 = omega * omega
    return o2 * (a + b + o2) / ((a + o2) * (b + o2))


# cavities, and frequencies on each cavity's grid
_REAL_AXIS_CAVITIES, _REAL_AXIS_OMEGAS = 4, 48


def _real_axis_results(raw, det_ref):
    """Results of one frequency: the phase shift, the Airy factor, the
    cavity matrices' distance from their identities, and the decomposition's
    sum."""
    phase, airy, matrices, pieces = raw
    S = matrices.S
    unit = float(np.max(np.abs(S.conj().T @ S - np.eye(2))))
    det = float(abs(np.linalg.det(S) - det_ref))
    return [Result(float(phase), None, None), Result(float(airy), None, None),
            Result(max(unit, det), None, None),
            Result(float(sum(pieces)), None, None)]


def make_real_axis(m, rng, workdir):
    """phase_shift, airy_factor, cavity_matrices and the phase-derivative
    decomposition on log grids of omega from 1e-6 to 1e2.

    One evaluation is all four at one frequency, as a caller asking for a
    cavity's response at omega makes them.  Timed one by one, the three
    cheap functions (about 12 us a call) set the median latency, and its
    spread over ten seeds was 15%."""
    s = m.scattering
    cases = []
    n = _REAL_AXIS_CAVITIES
    cfgs = list(zip(stratified(rng, n, 0.3, 3.0),
                    stratified(rng, n, 0.3, 3.0, stride=3),
                    stratified(rng, n, 0.1, 10.0, stride=3)))
    grids = [sorted(stratified(rng, _REAL_AXIS_OMEGAS, 1e-6, 1e2))
             for _ in cfgs]
    for (w1, w2, q), grid in zip(cfgs, grids):
        a, b = _pair(m, w1, w2)
        cfg = s.CavityConfig(a, b, q)
        for om in grid:
            r1, r2 = O.lorentzian_r(w1, om), O.lorentzian_r(w2, om)
            s1, s2 = -1j * om / (w1 - 1j * om), -1j * om / (w2 - 1j * om)
            z, _ = O.real_axis_loop(w1, w2, q, om)
            den = abs(1.0 - z) ** 2
            cond = O.EPS / _one_minus_r2(w1, w2, om)
            ps_ref = O.phase_shift_ref(w1, w2, q, om)
            # airy factor: the resonance-matrix identity g = |R|^2 / 2
            g = 0.5 * (abs(s1) ** 2 + abs(s2 * r1) ** 2 + abs(s1 * r2) ** 2
                       + abs(s2) ** 2) / den
            # cavity matrices: S unitary and det S = det S1 det S2 e^{i Delta}
            det_ref = ((s1 * s1 - r1 * r1) * (s2 * s2 - r2 * r2)
                       * np.exp(1j * ps_ref[0]))
            # decomposition: the three pieces sum to dDelta/domega
            d_ref, d_err = O.phase_shift_derivative_ref(w1, w2, q, om)
            refs = [ps_ref, (g, _REAL_AXIS_SLACK * cond * g),
                    (0.0, 1e-12 + ps_ref[1]),
                    (d_ref, d_err + _REAL_AXIS_SLACK * cond * abs(d_ref))]
            cases.append(Case(
                "real_axis",
                (lambda c=cfg, o=om: (
                    s.phase_shift(c, o), s.airy_factor(c, o),
                    s.cavity_matrices(c, o),
                    s.phase_shift_derivative_decomposition(c, o))),
                (lambda raw, d=det_ref: _real_axis_results(raw, d)),
                refs, (w1, w2, q, om)))
    return cases


WORKLOADS = {
    "cli_imag_axis": Workload(make_cli_imag_axis, 24),
    "roundtrip_t0": Workload(make_roundtrip_t0, 10),
    "thermal": Workload(make_thermal, 6),
    "real_axis": Workload(make_real_axis, 24),
}


def modules():
    """casmat's modules, imported by the caller once src/ is on the path."""
    import casmat.casimir2d
    import casmat.casimir4d
    import casmat.cli
    import casmat.quadrature
    import casmat.scattering
    import casmat.special_functions
    import casmat.spectral
    return SimpleNamespace(
        cli=casmat.cli, casimir2d=casmat.casimir2d, casimir4d=casmat.casimir4d,
        quadrature=casmat.quadrature, scattering=casmat.scattering,
        special_functions=casmat.special_functions, spectral=casmat.spectral)
