"""Adaptive semi-infinite quadrature and roundtrip series summation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.special import gammaln, zeta

from casmat import quadrature
from casmat.quadrature import (QuadratureSpec, _gauss_beta, _gauss_laguerre,
                               _panel, _sum_series, integrate_semi_infinite)
from casmat.special_functions import polylog

ZETA2 = 1.6449340668482264365


def test_exponential_integral():
    res = integrate_semi_infinite(lambda x: np.exp(-x), 1.0)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-12)
    # the reported error must bound the actual one (modest safety factor)
    assert abs(res.value - 1.0) <= max(10.0 * res.error_estimate, 1e-13)


def test_cubic_exponential_moment():
    res = integrate_semi_infinite(lambda x: x ** 3 * np.exp(-2.0 * x), 0.5)
    assert res.value == pytest.approx(3.0 / 8.0, rel=1e-12)


def test_bose_integral():
    # integrand tends to 1 at the origin and decays exponentially
    res = integrate_semi_infinite(lambda u: u / np.expm1(u), 1.0)
    assert res.value == pytest.approx(ZETA2, rel=1e-10)


def test_log_endpoint_integral():
    # integrable log singularity at the origin
    res = integrate_semi_infinite(lambda x: np.log1p(-np.exp(-2.0 * x)), 0.5)
    assert res.value == pytest.approx(-ZETA2 / 2.0, rel=1e-9)


def test_decay_scale_mismatch_still_converges():
    for scale in (0.2, 5.0):
        res = integrate_semi_infinite(lambda x: np.exp(-x), scale)
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-10)


def test_tight_tolerance_honoured():
    # integral of e^{-x} sin^2 x = 1/2 - 1/10
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16)
    res = integrate_semi_infinite(lambda x: np.exp(-x) * np.sin(x) ** 2, 1.0,
                                  spec)
    assert res.value == pytest.approx(0.4, rel=1e-12)


def _counted(f, calls):
    def counted(x):
        calls.append(x.size)
        return f(x)
    return counted


def test_panels_share_one_integrand_call():
    # the panel rule takes every panel's nodes in one call of an
    # elementwise integrand, and each panel's estimate is bit-equal to the
    # one it gets on its own
    calls = []
    f = _counted(lambda x: np.exp(-x) * np.sin(3.0 * x) ** 2 + 1.0 / (1.0 + x),
                 calls)
    a = [0.0, 0.5, 1.7, 3.0, 40.0]
    b = [0.5, 1.7, 3.0, 7.5, 41.0]
    values, errors = _panel(f, a, b)
    assert calls == [22 * len(a)]
    for i in range(len(a)):
        assert _panel(f, [a[i]], [b[i]]) == ([values[i]], [errors[i]])


def test_march_and_bisections_batch_their_panels():
    # the march takes its first seven panels (out to 6 decay scales, plus
    # one) in one call and each bisection's two halves in one more; the
    # evaluation count is unchanged, 22 per panel
    calls = []
    res = integrate_semi_infinite(_counted(lambda x: np.exp(-x), calls), 1.0)
    assert res.value == pytest.approx(1.0, rel=1e-12)
    assert res.evaluations == 242
    assert calls == [154, 44, 44]


_KNOTS = np.array([0.3, 0.9, 1.7, 2.2, 3.1, 4.0, 5.5, 7.0])
_KINKED = PchipInterpolator(_KNOTS, [1.0, 0.2, 0.9, 0.4, 1.5, 0.3, 0.8, 0.5])


def _kinked(x):
    # a C^1 monotone cubic between the knots, held constant outside them,
    # times e^{-x}: kinks at every knot
    return _KINKED(np.clip(x, _KNOTS[0], _KNOTS[-1])) * np.exp(-x)


def test_knot_edges_integrate_a_kinked_integrand_in_few_calls():
    # the pieces between knots are cubics times e^{-x}, so the march's
    # first request already meets the tolerance, with an honest bar
    pieces = np.concatenate(([0.0], _KNOTS, [np.inf]))
    parts = [quad(_kinked, a, b, epsabs=1e-16, epsrel=1e-13)
             for a, b in zip(pieces[:-1], pieces[1:])]
    ref, ref_err = math.fsum(p[0] for p in parts), sum(p[1] for p in parts)
    calls = []
    res = integrate_semi_infinite(_counted(_kinked, calls), 1.0,
                                  edges=_KNOTS)
    assert res.converged
    assert len(calls) <= 4
    assert abs(res.value - ref) <= res.error_estimate + ref_err
    # without the edges, bisection hunts the kinks down panel by panel
    blind = []
    integrate_semi_infinite(_counted(_kinked, blind), 1.0)
    assert len(blind) > 4 * len(calls)


def _spied_rounds(monkeypatch):
    """Record the panel values of every round of the panel rule."""
    rounds = []

    def spy(f, a, b, owner=None):
        vals, errs = _panel(f, a, b, owner)
        rounds.append(vals)
        return vals, errs

    monkeypatch.setattr(quadrature, "_panel", spy)
    return rounds


def test_march_that_meets_the_tolerance_sums_its_pieces_exactly(
        monkeypatch):
    # e^{-x^2} meets the tolerance on the march's first seven panels: no
    # bisection, 154 evaluations, and the value is the exactly rounded sum
    # of those panels (a sum in heap order reads 1 ulp higher here)
    rounds = _spied_rounds(monkeypatch)
    res = integrate_semi_infinite(lambda x: np.exp(-x * x), 1.0)
    assert res.converged
    assert res.evaluations == 154 and [len(v) for v in rounds] == [7]
    assert res.value == math.fsum(rounds[0])
    assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-9)


@pytest.mark.parametrize("f, calls, value", [
    (lambda x: np.sqrt(x) * np.exp(-x), [154, 44, 44, 22] + [44] * 11,
     0.886226925558463),
    (_kinked, [154] + [44] * 52, 0.6873485472961731),
], ids=["sqrt", "kinked"])
def test_refinement_keeps_its_panels(f, calls, value):
    # the refinement bisects the panels worst first, older on ties: the
    # integrand calls and evaluations of a sum in heap order, and its value
    # to within 1e-15 relative
    seen = []
    res = integrate_semi_infinite(_counted(f, seen), 1.0)
    assert res.converged
    assert seen == calls and res.evaluations == sum(calls)
    assert res.value == pytest.approx(value, rel=1e-15, abs=0.0)


def test_knot_edges_cap_the_pieces_at_the_panel_budget():
    # more knots than the total panel budget, on an integrand too rough for
    # the one piece that keeps the uncut edges: the march cuts no more
    # pieces than the budget allows, and the capped integral is reported
    # unconverged
    calls = []
    edges = np.linspace(1e-3, 5.0, quadrature._MAX_TOTAL_PANELS + 100)
    res = integrate_semi_infinite(
        _counted(lambda x: np.exp(-x) * (1.0 + np.abs(np.sin(1e4 * x))),
                 calls),
        1.0, edges=edges)
    assert not res.converged
    assert res.evaluations <= 22 * quadrature._MAX_TOTAL_PANELS
    assert sum(calls) == res.evaluations


def test_empty_edges_change_nothing():
    # no edges, or a table's knots all beyond the march's reach, which cut
    # nothing: the result is exactly that of no edges at all
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16)
    block = lambda i, x: np.exp(-x * (1.0 + i))
    scales = np.array([1.0, 0.5, 0.25])
    b = integrate_semi_infinite(block, scales, spec)
    for edges in ((), np.geomspace(1e3, 1e5, 50)):
        for f, scale in ((lambda x: np.exp(-x) * np.sin(x) ** 2, 1.0),
                         (lambda x: np.log1p(-np.exp(-2.0 * x)), 0.5)):
            assert integrate_semi_infinite(f, scale, spec, edges=edges) == \
                integrate_semi_infinite(f, scale, spec)
        a = integrate_semi_infinite(block, scales, spec, edges=edges)
        assert a.value.tolist() == b.value.tolist()
        assert a.error_estimate.tolist() == b.error_estimate.tolist()
        assert (a.evaluations, a.converged) == (b.evaluations, b.converged)


def test_cut_returns_a_round_with_no_edge_inside_it():
    # edges at or beyond the round's span leave it whole, with no owners
    # to re-sum; an edge strictly inside it cuts its panel
    starts, ends = [0.0, 0.5, 1.2], [0.5, 1.2, 2.18]
    for edges in ([], [0.0], [2.18, 7.0]):
        assert quadrature._cut(starts, ends, edges, 100) == \
            (starts, ends, None)
    assert quadrature._cut(starts, ends, [0.0, 1.0, 7.0], 100) == \
        ([0.0, 0.5, 1.0, 1.2], [0.5, 1.0, 1.2, 2.18], [0, 1, 1, 2])


def test_non_finite_edges_are_rejected():
    with pytest.raises(ValueError):
        integrate_semi_infinite(lambda x: np.exp(-x), 1.0,
                                edges=[0.5, math.nan])


def test_geometric_series():
    res = _sum_series(lambda ell: 0.5 ** ell, QuadratureSpec(), 0.5)
    assert res.converged
    # truncation sits under the default tail tolerance and is reported
    assert res.value == pytest.approx(1.0, rel=1e-9)
    assert abs(res.value - 1.0) <= 2.0 * res.error_estimate


def test_geometric_series_slow_ratio():
    res = _sum_series(lambda ell: 0.96 ** ell, QuadratureSpec(), 0.96)
    assert res.converged
    assert res.value == pytest.approx(0.96 / 0.04, rel=1e-9)
    assert abs(res.value - 0.96 / 0.04) <= 2.0 * res.error_estimate


@pytest.mark.parametrize("x, used", [(0.5, 34), (0.96, 565), (0.995, 4594)])
def test_geometric_exit_matches_one_term_loop(x, used):
    # the series pulls its terms in blocks and tests its a priori exit at
    # the checkpoints, on every term computed so far: it must stop at the
    # checkpoint that holds the l where a loop over one term at a time
    # meets the same rule, and keep the rest of that block, which puts the
    # value far inside the tail tolerance (the first-l exit that dropped
    # those terms ended 5.8e-11 to 1.0e-10 relative off)
    spec = QuadratureSpec()
    partial, ell = 0.0, 0
    while True:
        ell += 1
        partial += x ** ell
        bound = x ** ell * x / (1.0 - x)
        if bound <= max(spec.abs_tol, spec.series_tail_tol * abs(partial)):
            break
    assert ell == used
    checkpoint = min(c for c in (64, 128, 256, 512, 1024, spec.max_roundtrips)
                     if c >= used)
    res = _sum_series(lambda l: x ** l, spec, x)
    assert res.converged
    assert res.evaluations == checkpoint
    exact = x / (1.0 - x)
    assert abs(res.value - exact) <= res.error_estimate
    assert res.value == pytest.approx(exact, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "series_tail_tol"])
def test_non_finite_tolerances_are_rejected(field, bad):
    with pytest.raises(ValueError):
        QuadratureSpec(**{field: bad})


@pytest.mark.parametrize("bad", [1.5, 64.5, 60.0])
@pytest.mark.parametrize("field", ["max_roundtrips", "max_subdivisions"])
def test_non_integer_caps_are_rejected(field, bad):
    with pytest.raises(ValueError):
        QuadratureSpec(**{field: bad})


def test_roundtrip_cap_reported():
    # a ratio this close to 1 cannot satisfy the tail bound within the cap,
    # and the cap sits below the first tail-analysis checkpoint
    spec = QuadratureSpec(max_roundtrips=30)
    res = _sum_series(lambda ell: 0.995 ** ell, spec, 0.995)
    assert not res.converged
    assert res.evaluations == 30
    assert res.error_estimate > 0.0


def test_result_fields():
    res = integrate_semi_infinite(lambda x: np.exp(-x), 1.0)
    assert res.evaluations > 0
    assert isinstance(res.converged, bool)
    assert res.error_estimate >= 0.0


def test_critical_series_closes_through_algebraic_tail():
    # ratio bound 1 gives no geometric bound and the observed ratios rise
    # toward 1: the sum must come from the 1/l^k tail fit
    res = _sum_series(lambda ell: 1.0 / ell ** 2, QuadratureSpec(), 1.0)
    assert res.converged
    # the bar covers the truncated tail; adding up n terms in double
    # precision costs up to n more ulps of roundoff on top
    roundoff = res.evaluations * math.ulp(ZETA2)
    assert abs(res.value - ZETA2) <= res.error_estimate + roundoff


def test_critical_series_short_of_its_tolerance_keeps_its_best_fit():
    # no checkpoint's fit meets a 1e-16 tail tolerance, so at the cap the
    # series returns the fitted tail of smallest bar, unconverged, with
    # every term counted; that bar, not the last term, covers the error
    spec = QuadratureSpec(max_roundtrips=128, series_tail_tol=1e-16,
                          rel_tol=1e-16, abs_tol=1e-300)
    res = _sum_series(lambda ell: 1.0 / ell ** 2, spec, 1.0)
    assert not res.converged
    assert res.evaluations == 128
    assert res.error_estimate < 1e-14
    assert abs(res.value - ZETA2) <= res.error_estimate


@pytest.mark.parametrize("term", [lambda l: (-1.0) ** l / l ** 2,
                                  lambda l: l ** 0.5],
                         ids=["alternating", "growing"])
def test_tail_fit_refuses_a_window_that_is_not_algebraic(term):
    # sign changes or magnitudes that do not fall across [L/2, L]
    terms = term(np.arange(1.0, 65.0)).tolist()
    assert quadrature._fit_algebraic_tail(terms, 64) is None


def test_algebraic_terms_get_an_honest_observed_ratio_bar():
    # ratios of c/l^4 rise toward 1 and stay below 0.98 at l = 64: a
    # geometric bound from the largest of them, 15 t_64, falls short of the
    # tail, about 21 t_64, which the power-law bound t_L L / (p - 1) covers
    res = _sum_series(lambda l: 1e-9 / l ** 4, QuadratureSpec())
    assert res.converged
    assert res.evaluations == 64
    assert abs(res.value - 1e-9 * math.pi ** 4 / 90.0) <= res.error_estimate


@pytest.mark.parametrize("alpha", [0, 3, 255, 20000])
@pytest.mark.parametrize("m", [16, 24])
def test_gauss_laguerre_rule_is_exact(m, alpha):
    # the normalized weights v0sq take the moments of t^alpha e^{-t} /
    # Gamma(alpha + 1), E[t^j] = Gamma(alpha + j + 1) / Gamma(alpha + 1)
    # for j < 2m, checked in logs, since Gamma overflows past alpha = 170,
    # to the rounding of the logs (ln Gamma(20001) is 1.8e5)
    t, v0sq = _gauss_laguerre(m, alpha)
    assert t.shape == v0sq.shape == (m,)
    assert np.all(v0sq >= 0.0) and np.all(t > 0.0)
    rel = 1e-13 * max(1.0, gammaln(alpha + 2 * m))
    for j in range(2 * m):
        moment = gammaln(alpha + j + 1) - gammaln(alpha + 1)
        assert np.sum(v0sq * np.exp(j * np.log(t) - moment)) == pytest.approx(
            1.0, rel=rel)


@pytest.mark.parametrize("alpha", [0, 3, 63, 999])
@pytest.mark.parametrize("m", [8, 12])
def test_gauss_beta_rule_is_exact(m, alpha):
    # the moments of Beta(alpha + 1, alpha + 1), E[T^j] = prod_{i<j}
    # (alpha + 1 + i) / (2 alpha + 2 + i), exact as fractions, for j < 2m
    t, p = _gauss_beta(m, alpha)
    assert t.shape == p.shape == (m,)
    assert np.all((t > 0.0) & (t < 1.0)) and np.all(p > 0.0)
    moment = Fraction(1)
    for j in range(2 * m):
        assert np.sum(p * t**j) == pytest.approx(float(moment), rel=1e-14)
        moment *= Fraction(alpha + 1 + j, 2 * alpha + 2 + j)


def _polylog_calls(monkeypatch):
    """Record the polylogarithm calls made through `quadrature`'s name,
    which its series engine does not call."""
    from casmat import quadrature
    calls = []

    def spy(x, p):
        calls.append((x, p))
        return polylog(x, p)

    monkeypatch.setattr(quadrature, "polylog", spy)
    return calls


def test_polylog_series_closes_exactly(monkeypatch):
    # x^l / l^2 takes real l and e-folds over -1/ln x: at x = 0.99 neither
    # the observed ratio nor an a priori bound ends it, and Gregory's tail
    # closes it at the first checkpoint, 3.5e-13 off Li_2(0.99) against a
    # bar of 7.4e-11; at x = 0.85 the observed ratio ends it at l = 128.
    # The series engine never calls the polylogarithm
    calls = _polylog_calls(monkeypatch)
    for x, used in ((0.99, 64), (0.85, 128)):
        res = _sum_series(lambda l: x ** l / l ** 2, QuadratureSpec(),
                          efold_length=-1.0 / math.log(x))
        assert res.converged
        assert res.evaluations == used
        assert abs(res.value - polylog(x, 2)) <= res.error_estimate
    assert calls == []


def test_nearly_zero_temperature_force_closes_by_its_tail(monkeypatch):
    # at T = 1e-10 the thermal kernel is the vacuum one to double
    # precision, so the series is r0^l / l^2 up to a constant and must meet
    # the T = 0 closed form within its own bar.  Its terms take real l, so
    # Gregory's closure ends it at l = 64, below its e-folding length of
    # 200.  An alternating loop (r0 < 0) sums its terms in pairs, which
    # take real m: its closure ends at m = 64, l = 128.  Neither calls the
    # polylogarithm, which cannot see a thermal cutoff
    from casmat.casimir2d import force_large_distance
    calls = _polylog_calls(monkeypatch)
    for r0, used in ((0.995, 64), (-0.995, 128)):
        res = force_large_distance(r0, 1.0, 1e-10)
        assert res.converged
        assert res.roundtrips_used == used
        exact = force_large_distance(r0, 1.0, 0.0).value
        assert abs(res.value - exact) <= res.error_estimate
    assert calls == []


def _lstsq_tail(terms, L):
    """The algebraic tail fit as a direct least-squares solve per call."""
    los = np.unique(np.round(np.linspace(L // 2, L, 16)).astype(int))
    t = np.asarray(terms)[los - 1]
    y = L / los.astype(float)
    tails = []
    for ks in (np.arange(2, 8), np.arange(2, 6)):
        coeff = np.linalg.lstsq(y[:, None] ** ks, t, rcond=None)[0]
        tails.append(float(np.sum(coeff * float(L) ** ks
                                  * zeta(ks, L + 1))))
    return tails[0], abs(tails[0] - tails[1])


@pytest.mark.parametrize("L", [64, 128, 1024, 300])
@pytest.mark.parametrize("term", [
    lambda l: 1 / l**2 + 0.5 / l**3 - 0.2 / l**4 + 0.3 / l**6 + 0.1 / l**7,
    lambda l: -(1.0 + 0.1 / np.sqrt(l)) / l**2.5], ids=["mixture", "nearly"])
def test_cached_tail_weights_match_a_direct_fit(L, term):
    # the proxy is a difference of two tails, so it is compared on the
    # scale of the tail
    terms = term(np.arange(1.0, L + 1.0)).tolist()
    tail, proxy = quadrature._fit_algebraic_tail(terms, L)
    ref_tail, ref_proxy = _lstsq_tail(terms, L)
    assert abs(tail - ref_tail) <= 1e-12 * abs(ref_tail)
    assert abs(proxy - ref_proxy) <= 1e-12 * abs(ref_tail)


def test_tail_fit_bar_covers_the_tails_rounding():
    # both fits are exact on 1/l^2 terms: the tail is off by the rounding
    # of weights that sum to about 1,100 times it in absolute value
    terms = (1.0 / np.arange(1.0, 1025.0) ** 2).tolist()
    for L in range(64, 1025):
        tail, proxy = quadrature._fit_algebraic_tail(terms[:L], L)
        assert abs(tail - zeta(2.0, L + 1)) <= proxy


def test_tail_weights_are_cached_read_only():
    index, weights = quadrature._tail_weights(128)
    assert quadrature._tail_weights(128)[1] is weights
    assert weights.shape == (2, len(index)) == (2, 16)
    with pytest.raises(ValueError):
        weights[0, 0] = 1.0
    assert quadrature._tail_weights.cache_info().maxsize <= 256


@pytest.mark.parametrize("x", [0.3, -0.3, 0.9, -0.9])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_sum_series_closes_polylog_terms(p, x):
    # c x^l / l^p: the observed ratio ends each series, at l = 64 for
    # |x| = 0.3 and at 128 or 256 for 0.9, within its bar of c Li_p(x)
    c = -2.5
    res = _sum_series(lambda l: c * x ** l / l ** p, QuadratureSpec())
    assert res.converged
    assert res.evaluations <= 256
    assert abs(res.value - c * polylog(x, p)) <= res.error_estimate


def _singles(f, scales, spec):
    """The integrals of a block, each integrated on its own."""
    return [integrate_semi_infinite(
        lambda x, k=k: f(np.full(x.size, k), x), d, spec)
        for k, d in enumerate(scales)]


def _assert_block_matches(f, scales, spec=None):
    block = integrate_semi_infinite(f, np.asarray(scales), spec)
    singles = _singles(f, scales, spec)
    assert block.value.tolist() == [r.value for r in singles]
    assert block.error_estimate.tolist() == [r.error_estimate
                                             for r in singles]
    assert block.evaluations == sum(r.evaluations for r in singles)
    assert block.converged is all(r.converged for r in singles)
    return singles


@pytest.mark.parametrize("route", ["force", "pressure"])
def test_block_equals_one_integral_at_a_time(route):
    # a full 64-term block of a split-cutoff roundtrip force
    # (hypoexponential delay densities, with their exact means as decay
    # scales) and of a roundtrip pressure, built from the series integrands
    # with the fallback's decay scales and inner tolerances: in lockstep,
    # each term gets bit for bit the value, error and evaluations it gets
    # alone
    from casmat import casimir2d
    from casmat.scattering import CavityConfig, lorentzian_mirror
    from casmat.spectral import thermal_kernel_time
    m1, m2 = lorentzian_mirror(0.3), lorentzian_mirror(3.0)
    ells = np.arange(1, 65)
    if route == "force":
        q = 0.2
        weight, _ = casimir2d._delay_profile(CavityConfig(m1, m2, q))

        def integrand(l, s):
            return weight(l, s) * -thermal_kernel_time(2.0 * l * q + s, 0.0)

        scales = ells * (1 / 0.3 + 1 / 3.0)
    else:
        cfg = CavityConfig(m1, m2, 0.7)

        def integrand(l, kappa):
            return (kappa**3 * cfg.loop_r_imag(kappa) ** l
                    * np.exp(-2.0 * l * kappa * cfg.q) / np.pi**2)

        scales = 4 / (ells * (2.0 * cfg.q + 1 / 0.3 + 1 / 3.0))
    spec = QuadratureSpec(rel_tol=0.5e-9, abs_tol=0.5e-14)
    singles = _assert_block_matches(lambda i, x: integrand(ells[i], x),
                                    scales, spec)
    assert len(singles) == 64 and all(r.converged for r in singles)


def test_block_integrals_stopped_by_the_depth_cap():
    # a tolerance out of reach at depth 4: the faster oscillations stop at
    # the cap while their neighbours converge, and neither disturbs the
    # other's panels
    w = np.linspace(0.0, 40.0, 12)
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300, max_subdivisions=4)
    singles = _assert_block_matches(
        lambda i, x: np.exp(-x) * np.cos(w[i] * x) ** 2, np.ones(12), spec)
    assert {r.converged for r in singles} == {True, False}


def test_block_of_one_is_the_scalar_call():
    f = lambda x: np.exp(-x) * np.sin(3.0 * x) ** 2  # noqa: E731
    alone = integrate_semi_infinite(f, 0.7)
    block = integrate_semi_infinite(lambda i, x: f(x), [0.7])
    assert isinstance(alone.value, float)
    assert (block.value.tolist(), block.error_estimate.tolist(),
            block.evaluations, block.converged) == (
        [alone.value], [alone.error_estimate], alone.evaluations,
        alone.converged)


def test_empty_block():
    calls = []
    res = integrate_semi_infinite(lambda i, x: calls.append(x), np.array([]))
    assert (res.value.shape, res.error_estimate.shape, res.evaluations,
            res.converged, calls) == ((0,), (0,), 0, True, [])


def test_block_shares_integrand_calls():
    # one call per march round and per refinement sweep, not per integral:
    # the block makes as many calls as its costliest integral's march
    # rounds plus as many as its costliest integral's bisections
    def integrand(calls):
        def f(i, x):
            calls.append(x.size)
            return np.exp(-x) * np.cos(i * x) ** 2
        return f

    calls = []
    res = integrate_semi_infinite(integrand(calls), np.ones(8))
    alone = [[] for _ in range(8)]
    for k, counted in enumerate(alone):
        f = integrand(counted)
        integrate_semi_infinite(lambda x: f(np.full(x.size, k), x), 1.0)
    assert res.converged
    assert sum(calls) == res.evaluations
    costliest = max(len(c) for c in alone)
    assert costliest <= len(calls) <= 2 * costliest < sum(map(len, alone))


def test_block_merges_march_and_refinement():
    # an integral that finishes its march bisects in the next call while
    # others still march: the block makes exactly as many calls as its
    # costliest integral makes alone, and each integral keeps its values
    w = np.array([0.0, 0.0, 9.0, 20.0])
    scales = [0.05, 1.0, 1.0, 3.0]

    def integrand(calls):
        def f(i, x):
            calls.append(x.size)
            return np.exp(-x) * np.cos(w[i] * x) ** 2
        return f

    calls = []
    integrate_semi_infinite(integrand(calls), scales)
    alone = []
    for k, d in enumerate(scales):
        counted = []
        f = integrand(counted)
        integrate_semi_infinite(lambda x: f(np.full(x.size, k), x), d)
        alone.append(len(counted))
    assert len(calls) == max(alone)
    _assert_block_matches(integrand([]), scales)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_bad_decay_scales_are_rejected(bad):
    calls = []
    with pytest.raises(ValueError):
        integrate_semi_infinite(_counted(lambda x: np.exp(-x), calls), bad)
    with pytest.raises(ValueError):
        integrate_semi_infinite(lambda i, x: np.exp(-x), [1.0, bad])
    assert calls == []
