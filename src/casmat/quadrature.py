"""Adaptive quadrature and roundtrip-series summation.

All physical integrals in this package are either rotated to the imaginary
frequency axis or expressed as time-domain roundtrip sums, so every integrand
reaching this module is smooth (at worst endpoint-log-singular) and decays
exponentially, or is smooth between known kinks (the knots of a tabulated
mirror), which the caller passes as panel edges.  The engine is an embedded
Gauss pair (7/15 point) on panels, cut at any edges inside them (QUADPACK's
qagp) and globally refined worst-panel-first; Gauss rules for the
roundtrip terms, each the mean of a kernel over a law R (T / beta_1 +
(1 - T) / beta_2): R's gamma law (`_gauss_laguerre`) times T's symmetric
Beta law (`_gauss_beta`), one node if beta_1 = beta_2, with normalized
weights from one Golub-Welsch step and the panel engine as fallback; and
one series summator, `_sum_series`, with a geometric or power-law tail
bound and escape hatches for slowly decaying term sequences.  Terms that
take real l and carry a cutoff, such as the thermal terms of perfect
pairs and constant loops (1/l^2 up to l ~ 1/(2 pi T q), then
exponential; an alternating loop's in pairs), close by Gregory's formula
(Euler-Maclaurin with forward differences, DLMF 2.10(i)): the tail past a
checkpoint L is an integral over real l plus differences of terms already
computed, and the change from the closure at L/2 is its bar.  Other
sequences take an algebraic 1/l^k tail fit, whose exit test costs a fixed
few numpy calls per checkpoint, whatever the series length: two dot
products of 16 terms with weights cached per checkpoint (`_tail_weights`).
A series value is the exactly rounded sum (`math.fsum`) of its computed
terms plus the tail, and its error bar adds a rounding allowance of
2 eps sum_l |t_l| to the truncation bound, so the bar stays honest when
the truncation error is far below the terms' own rounding.  One rule,
`_tol_met`, decides whether an error meets a spec's tolerances.  Numpy's
floating-point warnings are off in an integral's rounds and a series'
checkpoints: what overflows ends as a value or bar that is not finite.

`integrate_semi_infinite` takes one integral or a block of them.  Each
integral is a coroutine (`_integral`) that asks for the panels its march
or refinement needs next, and each round makes one integrand call
(`_panel`) on the requests of all unfinished integrals, with no barrier
between the two phases.  Integrals share only these calls, so each gets
the results it gets on its own.  Integrands receive flat arrays of
abscissae spanning many panels (with each node's integral index for a
block), series terms integer arrays of l (a block between two
checkpoints); both must be elementwise: a node's value may not depend on
the other nodes.  An integral's value is the exactly rounded sum of its
panels.  An integrand damped like e^{-u} may try a Gauss-Laguerre pair
first (`_laguerre_pair`).  Gauss rules take numpy's eigh; scipy.special is
reached as `scipy.special.<fn>`, loaded at a process's first tail fit.
"""

import bisect
import functools
import heapq
import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
import scipy
from numpy.polynomial import Chebyshev, Polynomial
from numpy.polynomial.chebyshev import chebvander
from numpy.polynomial.legendre import leggauss

# perfbench's tracer wraps this by name on this module, which does not
# call it
from .special_functions import polylog  # noqa: F401

__all__ = [
    "QuadratureSpec",
    "IntegrationResult",
    "integrate_semi_infinite",
]

_X7, _W7 = leggauss(7)
_X15, _W15 = leggauss(15)
_X22 = np.concatenate([_X15, _X7])

# panel-marching geometry for the semi-infinite transform
_GROWTH = 1.4
_MIN_EXTENT_SCALES = 6.0
_MAX_MARCH_PANELS = 400
_MAX_TOTAL_PANELS = 20000
# the node counts of `_laguerre_pair`, the coarser first
_PAIR = (32, 48)
# rounding allowance per unit of sum_l |t_l| in a series error bar: the
# terms carry their own evaluation rounding, the exact sum adds none
_SUM_ROUNDING = 2.0 * np.finfo(float).eps


@dataclass
class QuadratureSpec:
    """Tolerances and caps shared by the integration and summation engines.

    rel_tol / abs_tol control the final integral estimate, series_tail_tol
    the relative truncation level of roundtrip series, max_subdivisions the
    bisection depth of any single panel, and max_roundtrips the hard cap on
    the series length.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_subdivisions: int = 60
    series_tail_tol: float = 1e-10
    max_roundtrips: int = 10000

    def __post_init__(self):
        if not all(0 < v < np.inf for v in vars(self).values()):
            raise ValueError("tolerances and caps must be positive and finite")
        if not all(isinstance(cap, numbers.Integral) and cap >= 1
                   for cap in (self.max_subdivisions, self.max_roundtrips)):
            raise ValueError(
                "max_subdivisions and max_roundtrips must be integers >= 1")


@dataclass
class IntegrationResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _tol_met(error, value, spec):
    """error <= max(spec.abs_tol, spec.rel_tol * |value|), elementwise."""
    if isinstance(error, np.ndarray):
        return error <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(value))
    return bool(error <= max(spec.abs_tol, spec.rel_tol * abs(value)))


def _panel(f, a, b, owner=None):
    """Embedded 7/15-point Gauss estimates on the panels [a_i, b_i].

    One call of f on all their 15 + 7 nodes: f(x), or f(i, x) with i the
    integral index of each node when owner[k] is panel k's integral in a
    block.  Returns lists of the 15-point values and of |I15 - I7|, each
    weighted on its own panel's nodes only.
    """
    a = np.asarray(a, dtype=float)[:, None]
    b = np.asarray(b, dtype=float)[:, None]
    half = 0.5 * (b - a)
    x = (0.5 * (a + b) + half * _X22).ravel()
    y = np.asarray(f(x) if owner is None else f(np.repeat(owner, 22), x),
                   dtype=float).reshape(-1, 1, 22)
    # a stack of row-times-weights products: each row gets the vector dot
    # product it gets on its own
    half = half[:, 0]
    i15 = half * (y[:, :, :15] @ _W15)[:, 0]
    err = np.abs(i15 - half * (y[:, :, 15:] @ _W7)[:, 0])
    return i15.tolist(), err.tolist()


def _cut(starts, ends, edges, room):
    """The panels [starts_k, ends_k] cut at the sorted edges inside each.

    The panels are consecutive.  Returns the pieces' starts, ends and
    panel indices k, or the panels themselves and None when no edge lies
    inside their span.  At most room cuts are made in all; past them a
    panel keeps its remaining edges inside its last piece.
    """
    i = bisect.bisect_right(edges, starts[0])
    if i == len(edges) or edges[i] >= ends[-1]:
        return starts, ends, None
    lo, hi, owner = [], [], []
    for k, (a, b) in enumerate(zip(starts, ends)):
        inside = edges[bisect.bisect_right(edges, a):
                       bisect.bisect_left(edges, b)][:room]
        room -= len(inside)
        lo += [a] + inside
        hi += inside + [b]
        owner += [k] * (len(inside) + 1)
    return lo, hi, owner


def _integral(scale, spec, tail_spec, edges):
    """One integral's march and worst-panel-first refinement, as a coroutine.

    Yields the (starts, ends) of the panels it needs next and is sent
    their (values, errors) from `_panel`.  Returns (value, error, panels
    made, converged).  The sorted list of edges cuts each march panel at
    the edges inside it, into pieces the refinement treats as panels; the
    march's tail test and its panel cap still count whole march panels.
    There is one march path: a round with no edge inside it is left whole.
    The value and the error are the exactly rounded sums (`math.fsum`) of
    the final pieces, plus the extrapolated tail in the error (NaN past
    the float range).  A running error that is not finite ends the
    refinement: no bisection makes it finite again.
    """
    tick = itertools.count()  # heap tie-breaker: older panels first
    heap = []  # (-err, tick, a, b, value, err, depth)
    march_errs = []  # the errors of the march panels (pieces), in order
    value = edge = 0.0
    width, extent = 0.5 * scale, _MIN_EXTENT_SCALES * scale
    streak = marched = 0
    room = _MAX_MARCH_PANELS  # the march panels the caps still allow
    prev = last = 0.0  # |value| of the last two panels
    while streak < 2 and room > 0:
        # the fewest panels after which the march could stop: those up to
        # the extent, then two in a row that pass the tail test
        starts, ends, need = [], [], 2 - streak
        while need and len(starts) < room:
            starts.append(edge)
            edge += width
            ends.append(edge)
            width *= _GROWTH
            if edge >= extent:
                need -= 1
        marched += len(starts)
        lo, hi, owner = _cut(starts, ends, edges,
                             _MAX_TOTAL_PANELS - len(heap) - len(starts))
        vals, errs = yield lo, hi
        march_errs += errs
        for a, b, val, err in zip(lo, hi, vals, errs):
            heapq.heappush(heap, (-err, next(tick), a, b, val, err, 0))
        # the tail test takes whole march panels, the sums of their pieces
        if owner is not None:
            vals = np.bincount(owner, vals).tolist()
        for b, val in zip(ends, vals):
            value += val
            small = b >= extent and _tol_met(abs(val), value, tail_spec)
            streak = streak + 1 if small else 0
            prev, last = last, abs(val)
        room = min(_MAX_MARCH_PANELS - marched, _MAX_TOTAL_PANELS - len(heap))

    # the truncated tail: a geometric extrapolation of the last two panels
    # (the march makes >= 7), a fixed part of the error total
    ratio = min(0.9, last / prev) if prev > 0.0 else 0.0
    extra = error = last * ratio / (1.0 - ratio)
    for err in march_errs:
        error += err
    pops = 0
    capped = False
    while error < math.inf and not _tol_met(error, value, spec):
        item = heapq.heappop(heap)
        if item[6] >= spec.max_subdivisions or \
                len(heap) + 2 > _MAX_TOTAL_PANELS:
            heapq.heappush(heap, (item[0], next(tick)) + item[2:])
            capped = True
            break
        _, _, a, b, val, err, depth = item
        mid = 0.5 * (a + b)
        (vl, vr), (el, er) = yield (a, mid), (mid, b)
        value += vl + vr - val
        error += el + er - err
        heapq.heappush(heap, (-el, next(tick), a, mid, vl, el, depth + 1))
        heapq.heappush(heap, (-er, next(tick), mid, b, vr, er, depth + 1))
        pops += 1

    try:
        value = math.fsum(item[4] for item in heap)
        error = extra + math.fsum(item[5] for item in heap)
    except (OverflowError, ValueError):  # past the float range, or inf - inf
        value = error = math.nan
    # a bisection replaces one panel by two and evaluates both
    return (value, error, len(heap) + pops,
            not capped and streak >= 2 and _tol_met(error, value, spec))


def integrate_semi_infinite(f, decay_scale, spec=None, edges=()):
    """Integrate f over (0, inf) for an (at least) exponentially damped f.

    Parameters
    ----------
    f : callable
        Elementwise integrand, called on flat arrays of nodes spanning
        several panels; never evaluated at 0 (Gauss nodes are interior),
        so integrable endpoint singularities are admissible.  For a scalar
        decay_scale it is f(x); for a block it is f(i, x), where i holds
        the index into decay_scale of the integral each node belongs to.
    decay_scale : float or 1-D array
        Scale of the exponential decay of f; sets the initial panel width
        and the minimum extent covered before tail truncation.  An array
        of n scales integrates a block of n integrals in lockstep.
    spec : QuadratureSpec, optional
    edges : 1-D array_like, optional
        Known kinks of f, such as the knots of an interpolated table, in
        f's own variable and shared by every integral of a block.  Each
        march panel is cut at the edges inside it, so no Gauss panel
        straddles a kink (QUADPACK's qagp); the pieces are requested in
        the same round as their panel, count against the total panel
        budget but not against the march's panel cap.  Edges outside the
        march's reach change nothing.  The march takes one path: a round
        of panels with no edge inside it is not cut.

    Returns
    -------
    IntegrationResult
        Panel marching stops once two consecutive panels contribute below
        the tail tolerance; the truncated tail enters the error estimate
        through a geometric extrapolation of the last panels.  Then the
        worst panel is bisected until the summed errors meet the
        tolerance, a panel reaches the depth cap or the panel budget runs
        out.  For a block, value and error_estimate are arrays with one
        entry per integral, evaluations is the block's total and converged
        is true only if every integral converged.

    Notes
    -----
    Each integral runs as its own coroutine (`_integral`).  Every round
    makes one call of f on the panels that each unfinished integral asks
    for next: the next march panels of one, the two halves of the worst
    panel of another.  There is no barrier between the march and the
    refinement, so a block makes as many calls as its costliest integral
    makes alone.  Integrals share nothing but these calls, so each gets
    exactly the panels, value and error it gets on its own.
    """
    block = np.ndim(decay_scale) > 0
    scales = np.ravel(decay_scale).tolist()
    if not all(0.0 < d < np.inf for d in scales):
        raise ValueError("decay_scale must be positive and finite")
    if spec is None:
        spec = QuadratureSpec()
    tail_spec = replace(spec, rel_tol=spec.series_tail_tol)
    edges = sorted(set(np.asarray(edges, dtype=float).ravel().tolist()))
    if not all(map(math.isfinite, edges)):
        raise ValueError("edges must be finite")
    runs = [_integral(d, spec, tail_spec, edges) for d in scales]
    # (index, coroutine, its request) of each unfinished integral
    live = [(k, run, next(run)) for k, run in enumerate(runs)]
    results = [None] * len(runs)
    with np.errstate(all="ignore"):
        while live:
            starts, ends, owner = [], [], []
            for k, _, (a, b) in live:
                starts += a
                ends += b
                owner += [k] * len(a)
            vals, errs = _panel(f, starts, ends, owner if block else None)
            i, still = 0, []
            for k, run, (a, _) in live:
                j = i + len(a)
                try:
                    still.append((k, run, run.send((vals[i:j], errs[i:j]))))
                except StopIteration as done:
                    results[k] = done.value
                i = j
            live = still
    value, error, panels, converged = zip(*results) if results else [()] * 4
    evaluations = 22 * sum(panels)
    if not block:
        return IntegrationResult(value[0], error[0], evaluations,
                                 converged[0])
    return IntegrationResult(np.array(value), np.array(error), evaluations,
                             all(converged))


def _golub_welsch(diagonal, off_diagonal):
    """Golub-Welsch: a Jacobi matrix's eigenvalues t and its eigenvectors'
    squared first components v_0^2 (the Gauss weights), by numpy."""
    t, v = np.linalg.eigh(np.diag(diagonal) + np.diag(off_diagonal, -1))
    return t, v[0] * v[0]


def _gauss_laguerre(m, alpha):
    """m-point Gauss rule (t, v0sq) of the Gamma(alpha + 1, 1) law.

    Exact for the mean of a polynomial of degree < 2m under the normalized
    weight t^alpha e^{-t} / Gamma(alpha + 1) on (0, inf), alpha >= 0:
    `_golub_welsch` on the Laguerre recurrence, diagonal 2n + alpha + 1
    and off-diagonal sqrt(n (n + alpha)).
    """
    i = np.arange(m, dtype=float)
    return _golub_welsch(2.0 * i + alpha + 1.0,
                         np.sqrt(i[1:] * (i[1:] + alpha)))


@functools.lru_cache(maxsize=1)
def _pair_rule():
    """The nodes u of the rules `_PAIR` and their weights v_0^2 e^u."""
    u, v0sq = map(np.concatenate,
                  zip(*[_gauss_laguerre(m, 0.0) for m in _PAIR]))
    return u, v0sq * np.exp(u)


def _laguerre_pair(f, spec=None):
    """f's integral over (0, inf) for f damped like e^{-u}, or None.

    One call of f on the 32 + 48 Gauss-Laguerre nodes (`_pair_rule`).  The
    48-point value G48 is accepted when its bar, |G48 - G32| plus
    `_SUM_ROUNDING` sum |w f|, meets spec's tolerances, which no value or
    bar that is not finite does: QUADPACK's pair first, a march on a miss.
    """
    u, w = _pair_rule()
    with np.errstate(all="ignore"):
        y = (np.asarray(f(u), dtype=float) * w).tolist()
    try:
        coarse, fine = math.fsum(y[:_PAIR[0]]), math.fsum(y[_PAIR[0]:])
        error = abs(fine - coarse) + _SUM_ROUNDING * math.fsum(
            map(abs, y[_PAIR[0]:]))
    except (OverflowError, ValueError):  # past the float range, or inf - inf
        return None
    if _tol_met(error, fine, spec or QuadratureSpec()):
        return IntegrationResult(fine, error, sum(_PAIR), True)
    return None


def _gauss_beta(m, alpha):
    """m-point Gauss rule (t, p) of the Beta(alpha + 1, alpha + 1) law.

    Exact for the mean of a polynomial of degree < 2m under the normalized
    weight t^alpha (1 - t)^alpha / B(alpha + 1, alpha + 1) on (0, 1),
    alpha >= 0: `_golub_welsch` on the symmetric Jacobi recurrence moved
    to (0, 1), diagonal 1/2 and off-diagonal
    sqrt(n (n + 2 alpha) / ((2n + 2 alpha - 1)(2n + 2 alpha + 1))) / 2.
    """
    n = np.arange(1, m, dtype=float)
    k = 2.0 * (n + alpha)
    return _golub_welsch(np.full(m, 0.5),
                         0.5 * np.sqrt(n * (n + 2.0 * alpha)
                                       / ((k - 1.0) * (k + 1.0))))


# row j holds the coefficients of y^0..y^5 in T_j(2y - 3); applied to the
# sums over l > L of y^k, k = 2..7, it gives the sum of y^2 T_j(2y - 3)
_CHEBYSHEV_POWERS = np.array([
    np.pad(Chebyshev.basis(j, domain=[1, 2]).convert(kind=Polynomial).coef,
           (0, 5 - j)) for j in range(6)])


@functools.lru_cache(maxsize=64)
def _tail_weights(L):
    """The window and weights of the algebraic tail fits at checkpoint L.

    The least-squares fits of 1/l^k, k = 2..7 and k = 2..5, to the terms
    at 16 l spread over [L/2, L], with the fitted terms summed past L by
    Hurwitz zeta functions, are linear in those terms.  Returns the l - 1
    and a read-only 2 x 16 array taking the terms to the two tails.  The
    fits work in y = L/l on the basis y^2 T_j(2y - 3), j < 6, Chebyshev
    polynomials on [1, 2]: the span of y^2..y^7 at a condition number of
    about 3, not 1e6, so the weights are good to a few ulps.
    """
    los = np.unique(np.round(np.linspace(L // 2, L, 16)).astype(int))
    y = L / los.astype(float)
    design = y[:, None] ** 2 * chebvander(2.0 * y - 3.0, 5)
    ks = np.arange(2, 8)
    tails = _CHEBYSHEV_POWERS @ (float(L) ** ks
                                 * scipy.special.zeta(ks, L + 1))
    weights = np.stack([tails @ np.linalg.pinv(design),
                        tails[:4] @ np.linalg.pinv(design[:, :4])])
    weights.flags.writeable = False
    return (los - 1).tolist(), weights


def _fit_algebraic_tail(term_list, L):
    """Least-squares 1/l^k tail (k = 2..7) fitted on the window [L/2, L].

    Returns (tail, error_proxy), the proxy being the distance to the fit
    with k = 2..5 plus the tail's own rounding, eps sum_l |w_l t_l| over
    the weights w_l of the k = 2..7 fit (about 1,100 times the tail for
    1/l^2 terms), or None when the window is unsuitable (sign changes or
    non-decreasing magnitudes, both of which signal a non-algebraic
    regime).  Both fits are dot products with `_tail_weights(L)`.
    """
    index, weights = _tail_weights(L)
    t = np.array([term_list[i] for i in index])
    mags = t if t[0] > 0.0 else -t
    if not (mags[-1] > 0.0 and np.all(mags[:-1] >= mags[1:])):
        return None
    tail, tail2 = (weights @ t).tolist()
    rounding = np.finfo(float).eps * float(np.abs(weights[0]) @ mags)
    return tail, abs(tail - tail2) + rounding


# Gregory's coefficients g_j: sum_{l>L} t_l = int_L^inf t dl - t_L / 2
# - sum_j g_j Delta^j t_L, with forward differences over t_L..t_{L+5}
_GREGORY = (1 / 12, -1 / 24, 19 / 720, -3 / 160, 863 / 60480)
# the closure's weights on t_L..t_{L+5}: row 0 of the j-th difference of
# the identity holds the coefficients of Delta^j t_L
_GREGORY_WEIGHTS = -0.5 * np.eye(6)[0] - sum(
    g * np.diff(np.eye(6), j, axis=0)[0] for j, g in enumerate(_GREGORY, 1))


def _gregory_tails(terms, kept, L, spec):
    """The series closed at L // 2 and at L by Gregory's formula.

    terms takes real l.  The two tail integrals int_{L_i}^inf t dl run as
    one lockstep block of `integrate_semi_infinite` in l = L_i e^s, where
    terms that fall like 1/l^2 decay like e^{-s}, and t_{L+1}..t_{L+5}
    take one more call of terms.  kept holds t_1..t_L.  Returns the tail
    past L, the bar |S_L - S_{L/2}| of the two closed sums plus both
    integrals' bars, and whether both integrals converged.
    """
    starts = np.array([L // 2, L], dtype=float)

    def integrand(i, s):
        ells = starts[i] * np.exp(s)
        return np.asarray(terms(ells), dtype=float) * ells

    tails = integrate_semi_infinite(integrand, np.ones(2), spec)
    ahead = np.asarray(terms(np.arange(L + 1, L + 6)), dtype=float)
    window = np.array([kept[L // 2 - 1:L // 2 + 5],
                       np.concatenate((kept[L - 1:], ahead))])
    closed = (tails.value + window @ _GREGORY_WEIGHTS).tolist()
    change = abs(math.fsum(kept[L // 2:] + [closed[1], -closed[0]]))
    return (closed[1], change + float(np.sum(tails.error_estimate)),
            tails.converged)


def _sum_series(terms, spec=None, ratio_bound=None, efold_length=None):
    """Sum the roundtrip series sum_{l>=1} t_l: every engine's series.

    terms(ells) maps the integer array of l from one checkpoint + 1 to the
    next (1..64, 65..128, ..., 1025..cap) to its terms in one call,
    elementwise.  ratio_bound bounds |t_{l+1} / t_l| a priori; at or above
    1 (perfectly reflecting pairs) it says nothing.  efold_length, when
    given, says that terms(l) takes real l, smooth in l, and that the terms
    e-fold over about that many l past their algebraic range, as thermal
    terms and the terms of a loop of reflection 0 < r0 < 1 do.  Every exit is
    tested at a checkpoint L on all the terms computed up to L; none
    discards a term.  Exits, in order: the a priori geometric bound
    |t_L| ratio_bound / (1 - ratio_bound) (ratio_bound < 1); an
    observed-ratio bound (the larger of the geometric tail and the
    power-law tail through the last two terms); and then one closure from
    64 terms on: with efold_length, Gregory's at checkpoints L below it
    (`_gregory_tails`), whose bar is |S_L - S_{L/2}| plus both tail
    integrals' bars, or else an algebraic 1/l^k tail fit, which closes
    critical sequences such as 1/l^2 but sees no cutoff past its window.
    A series that meets no exit returns the closure of smallest bar,
    unconverged.  Exit decisions use the sequential running partial sum;
    the value is the exact `math.fsum` of the terms used plus any closed
    or fitted tail, and the error bar adds the rounding allowance
    2 eps sum_l |t_l| to the truncation bound.  evaluations counts the
    terms summed, not the calls, nor the five terms past L or the tail
    integrals' real l that a closure takes.
    No checkpoint raises a numpy warning: a block with a term, or a running
    sum, that is not finite ends the series with a NaN value, which
    `Result` refuses.

    The exit tests of a checkpoint read at most its last 16 terms and cost
    a fixed few numpy calls, whatever l: the tail fit is two dot products
    with the weights `_tail_weights` caches per checkpoint, about 8
    microseconds on a 2-vCPU Xeon (by timeit).  A Gregory closure costs one
    block of two tail integrals, usually one to four panel calls, about
    0.2-0.4 ms.
    """
    if spec is None:
        spec = QuadratureSpec()
    cap = spec.max_roundtrips
    tail_spec = replace(spec, rel_tol=spec.series_tail_tol)
    geometric = ratio_bound is not None and ratio_bound < 1.0
    kept = []
    partial = 0.0
    best = None  # (bar, result) of the closed tail nearest to tolerance

    def result(tail, error, converged):
        rounding = _SUM_ROUNDING * sum(map(abs, kept))
        return IntegrationResult(math.fsum(kept) + tail, error + rounding,
                                 len(kept), converged)

    checkpoints = sorted({min(c, cap) for c in (64, 128, 256, 512, 1024, cap)})
    with np.errstate(all="ignore"):
        for ell in checkpoints:
            ells = np.arange(len(kept) + 1, ell + 1)
            block = np.asarray(terms(ells), dtype=float).reshape(ells.shape)
            partial = float(np.cumsum(np.concatenate(([partial], block)))[-1])
            if not math.isfinite(partial):
                return IntegrationResult(math.nan, math.nan, ell, False)
            kept += block.tolist()
            if geometric:
                bound = abs(kept[-1]) * ratio_bound / (1.0 - ratio_bound)
                if _tol_met(bound, partial, tail_spec):
                    return result(0.0, bound, True)

            window = np.abs(kept[-9:])
            if np.max(window) == 0.0:
                # all terms, or the last 9, are exact zeros (underflow): done
                return result(0.0, 0.0, True)
            if len(kept) >= 9 and np.all(window[:-1] > 0.0):
                r = float(np.max(window[1:] / window[:-1]))
                # the exponent of a power law through the last two terms:
                # terms that fall algebraically have ratios rising toward 1,
                # and only t_L L / (p - 1) bounds their tail
                p = (math.log(window[-2] / window[-1])
                     / math.log(ell / (ell - 1))
                     if window[-1] > 0.0 else math.inf)
                if r < 0.98 and p > 1.0:
                    tail = window[-1] * max(r / (1.0 - r), ell / (p - 1.0))
                    if _tol_met(tail, partial, tail_spec):
                        return result(0.0, tail, True)

            # a closure at L: Gregory's below the e-folding length of terms
            # with a cutoff, which no fit past the window sees, or else the fit
            closed = None
            if efold_length is None and ell >= 64:
                fit = _fit_algebraic_tail(kept, ell)
                closed = None if fit is None else (*fit, True)
            elif efold_length is not None and 64 <= ell < efold_length:
                # each tail integral gets a quarter of the sum's budget
                budget = max(spec.abs_tol, spec.series_tail_tol * abs(partial))
                closed = _gregory_tails(terms, kept, ell, replace(
                    spec, rel_tol=0.25 * spec.series_tail_tol,
                    abs_tol=0.25 * budget))
            if closed is not None:
                tail, error, quad_ok = closed
                if quad_ok and _tol_met(error, partial + tail, tail_spec):
                    return result(tail, error, True)
                if best is None or error < best[0]:
                    best = (error, result(tail, error, False))

    if best is not None:
        return replace(best[1], evaluations=len(kept))
    return result(0.0, bound if geometric else abs(kept[-1]), False)
