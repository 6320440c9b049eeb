"""Spans around the calls into casmat's layers, recorded from outside src/.

Each traced function is replaced, on the module or class that the *calling*
code looks it up on, by a wrapper that records one span: layer, parent span,
start, end, and a work count (points, evaluations or terms) with a flag for
non-converged results.  Spans stay in memory, in flat arrays, until the run
ends.  A layer's self time is its spans' durations minus the durations of
their direct children.

A target that does not exist (for example a private function a later change
renamed) is recorded as absent instead of failing the run.
"""

import functools
from array import array
from time import perf_counter

import numpy as np


def _size(x):
    return int(np.size(x))


def _integration(args, out):
    return out.evaluations, not out.converged


def _arg_points(i):
    return lambda args, out: (_size(args[i]), False)


def _one_point(args, out):
    return 1, False


def layer_targets(m):
    """[(layer, owner, attribute, work)] for every span the tracer records.

    Owners are the modules (or class) through which callers reach each
    function: the engines import the quadrature, special-function and
    kernel helpers by name, so those are wrapped on the engine modules.
    """
    c2, c4 = m.casimir2d, m.casimir4d
    engines2d = ("force_imag_axis", "force_roundtrip_time",
                 "force_large_distance", "mode_sum_oracle_2d",
                 "casimir_energy", "free_energy", "internal_energy_thermal")
    engines4d = ("pressure_imag_axis", "pressure_roundtrip",
                 "pressure_large_distance", "pressure_thermal_large_distance",
                 "pressure_high_temperature", "mode_sum_oracle_4d",
                 "energy_4d")
    targets = [("cli", m.cli, "main", None),
               ("cli.parse", m.cli, "_build_parser", None)]
    targets += [("casimir2d", c2, name, None) for name in engines2d]
    targets += [("casimir4d", c4, name, None) for name in engines4d]
    targets += [
        ("quadrature.integrate", c2, "integrate_semi_infinite", _integration),
        ("quadrature.integrate", c4, "integrate_semi_infinite", _integration),
        ("quadrature.panel", m.quadrature, "_panel", None),
        ("quadrature.series", c2, "_sum_series", _integration),
        ("quadrature.series", c4, "_sum_series", _integration),
        ("special_functions.hypoexp", c2, "hypoexp_weight", _arg_points(3)),
        ("special_functions.erlang", c2, "erlang_weight", _arg_points(2)),
        ("special_functions.erlang", m.special_functions, "erlang_weight",
         _arg_points(2)),
        ("special_functions.polylog", c2, "polylog", _one_point),
        ("special_functions.polylog", c4, "polylog", _one_point),
        ("special_functions.polylog", m.quadrature, "polylog", _one_point),
        ("spectral", c2, "thermal_kernel_time", _arg_points(0)),
        ("spectral", c2, "free_energy_kernel_time", _arg_points(0)),
        ("spectral", c4, "kernel_4d_thermal", _arg_points(0)),
        ("scattering.loop_r_imag", m.scattering.CavityConfig, "loop_r_imag",
         _arg_points(1)),
        ("scattering.phase_shift", m.scattering, "phase_shift", None),
    ]
    targets += [("scattering.real_axis", m.scattering, name, None)
                for name in ("airy_factor", "cavity_matrices",
                             "phase_shift_derivative_decomposition")]
    return targets


class Tracer:
    def __init__(self, targets):
        self.layers = sorted({t[0] for t in targets})
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.flag = array("b")
        self._stack = [-1]
        self._targets = targets
        self._saved = []
        self.absent = []

    def install(self):
        for layer, owner, attr, work in self._targets:
            original = owner.__dict__.get(attr)
            if original is None:
                self.absent.append("%s.%s" % (owner.__name__, attr))
                continue
            wrapper = self._wrap(self._layer_id[layer], original, work)
            if layer == "cli.parse":
                wrapper = self._wrap_parser_factory(wrapper)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, layer_id, fn, work):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.layer.append(layer_id)
            self.parent.append(stack[-1])
            self.work.append(0.0)
            self.flag.append(0)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
            if work is not None:
                w, bad = work(args, out)
                self.work[sid] = w
                self.flag[sid] = bool(bad)
            return out

        return traced

    def _wrap_parser_factory(self, build):
        # the parser's parse_args joins the same "cli.parse" layer
        layer_id = self._layer_id["cli.parse"]

        @functools.wraps(build)
        def factory(*args, **kwargs):
            parser = build(*args, **kwargs)
            parser.parse_args = self._wrap(layer_id, parser.parse_args, None)
            return parser

        return factory

    def __len__(self):
        return len(self.start)

    def summarize(self, lo, hi):
        """Per-layer totals over spans [lo, hi): calls, work, flags, self s."""
        layer = np.frombuffer(self.layer, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        dur = (np.frombuffer(self.end)[lo:hi]
               - np.frombuffer(self.start)[lo:hi])
        work = np.frombuffer(self.work)[lo:hi]
        flag = np.frombuffer(self.flag, dtype=np.int8)[lo:hi]
        inside = parent >= 0
        child = np.bincount(parent[inside], weights=dur[inside],
                            minlength=len(dur))
        self_t = dur - child
        n = len(self.layers)
        out = {}
        calls = np.bincount(layer, minlength=n)
        works = np.bincount(layer, weights=work, minlength=n)
        flags = np.bincount(layer, weights=flag, minlength=n)
        selfs = np.bincount(layer, weights=self_t, minlength=n)
        totals = np.bincount(layer, weights=dur, minlength=n)
        for i, name in enumerate(self.layers):
            out[name] = {"calls": int(calls[i]), "work": float(works[i]),
                         "flags": int(flags[i]), "self_s": float(selfs[i]),
                         "total_s": float(totals[i])}
        return out

    def save(self, path):
        np.savez_compressed(
            path, layers=np.array(self.layers),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            work=np.frombuffer(self.work),
            flag=np.frombuffer(self.flag, dtype=np.int8))
