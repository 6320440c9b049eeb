"""Property tests: independent routes to one observable agree within bars.

The roundtrip series and the imaginary-axis integral share no numerical
step, so on any lorentzian pair, or a lorentzian facing a perfect mirror,
each must converge and the two must lie within the sum of their error
bars.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from casmat.casimir2d import force_imag_axis, force_roundtrip_time
from casmat.casimir4d import (PlanarMirrorModel, pressure_imag_axis,
                              pressure_roundtrip)
from casmat.scattering import CavityConfig, lorentzian_mirror, perfect_mirror


def _decades(lo, hi):
    """Log-uniform on [10^lo, 10^hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@pytest.mark.parametrize("roundtrip, imag_axis, planar", [
    (force_roundtrip_time, force_imag_axis, False),
    (pressure_roundtrip, pressure_imag_axis, True),
], ids=["force2d", "pressure4d"])
@settings(max_examples=200, derandomize=True, deadline=None)
# widely split cutoffs at a small q send the pressure's low orders to the
# adaptive fallback
@example(0.1, 10.0, 0.01)
# a lorentzian facing a perfect mirror (None), whose closure expands one
# cutoff, at both ends of the range of q, and a perfect pair
@example(None, 0.1, 0.01)
@example(0.7, None, 1.0)
@example(None, 10.0, 1e3)
@example(3.0, None, 0.05)
@example(None, None, 0.3)
@given(_decades(-1, 1), _decades(-1, 1), _decades(-2, 3))
def test_t0_roundtrip_agrees_with_imag_axis(roundtrip, imag_axis, planar,
                                            omega1, omega2, q):
    mirrors = [perfect_mirror() if w is None else lorentzian_mirror(w)
               for w in (omega1, omega2)]
    if planar:
        mirrors = [PlanarMirrorModel(m) for m in mirrors]
    cfg = CavityConfig(*mirrors, q)
    a, b = roundtrip(cfg), imag_axis(cfg)
    assert a.converged and b.converged
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate
