"""The benchmark's tracer finds every layer it wraps.

perfbench/tracer.py wraps each (owner, attribute) that `layer_targets`
names, on the module or class through which casmat's callers reach it,
and records one it cannot find as absent: that layer's spans then read 0
and only a traced benchmark run shows it.  This checks the same lookup
in the unit tests.
"""

import importlib.util
from pathlib import Path

import casmat
from casmat import (casimir2d, casimir4d, cli, quadrature,  # noqa: F401
                    scattering, special_functions, spectral)

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_layer_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.layer_targets(casmat)
    assert targets
    absent = ["%s.%s" % (owner.__name__, attr)
              for _, owner, attr, _ in targets if attr not in vars(owner)]
    assert absent == []
