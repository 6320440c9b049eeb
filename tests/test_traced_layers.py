"""The benchmark's tracer finds every layer it wraps.

perfbench/tracer.py wraps each (owner, attribute) that `layer_targets`
names, on the module or class through which casmat's callers reach it,
and records one it cannot find as absent: that layer's spans then read 0
and only a traced benchmark run shows it.  This checks the same lookup
in the unit tests, and that the engines' integrals and series reach
their wrapped names.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import casmat
from casmat import (casimir2d, casimir4d, cli, quadrature,  # noqa: F401
                    scattering, special_functions, spectral)
from casmat.scattering import (CavityConfig, lorentzian_mirror,
                               tabulated_mirror)

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_layer_exists():
    targets = _tracer_module().layer_targets(casmat)
    assert targets
    absent = ["%s.%s" % (owner.__name__, attr)
              for _, owner, attr, _ in targets if attr not in vars(owner)]
    assert absent == []


def _traced(call):
    """call's result and its per-layer totals under perfbench's tracer."""
    module = _tracer_module()
    tracer = module.Tracer(module.layer_targets(casmat))
    tracer.install()
    try:
        res = call()
    finally:
        tracer.remove()
    assert tracer.absent == []
    return res, tracer.summarize(0, len(tracer))


def _plates(mirror, q=1.0):
    plate = casimir4d.PlanarMirrorModel(mirror)
    return CavityConfig(plate, plate, q)


_XI = np.geomspace(1e-3, 1e3, 50)


@pytest.mark.parametrize("call", [
    lambda: casimir4d.pressure_imag_axis(
        _plates(tabulated_mirror(_XI, -1.0 / (1.0 + _XI)))),
    lambda: casimir4d.energy_4d(_plates(lorentzian_mirror(1.0))),
], ids=["pressure-table", "energy-lorentzian"])
def test_an_imaginary_axis_integral_makes_one_integrate_span(call):
    res, layers = _traced(call)
    assert res.converged
    assert layers["quadrature.integrate"]["calls"] == 1
    assert layers["quadrature.series"]["calls"] == 0


@pytest.mark.parametrize("call", [
    lambda: casimir4d.pressure_thermal_large_distance(0.5, 1.0, 0.1),
    lambda: casimir2d.force_large_distance(0.5, 1.0, 0.1),
], ids=["pressure", "force"])
def test_a_constant_loop_series_makes_one_series_span(call):
    res, layers = _traced(call)
    assert res.converged and res.roundtrips_used == 64
    assert layers["quadrature.series"]["calls"] == 1
    assert layers["quadrature.series"]["work"] == res.roundtrips_used
