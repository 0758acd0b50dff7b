"""Improper-integral quadrature with certificates.

Near R1 both routes work in the offset ``t = r - R1``, which keeps every
digit of the distance to R1.  They are kept deliberately independent:

* :func:`integrate` takes an opaque array integrand (an array of abscissae
  in, an array of values out; the witnesses pass offsets) and works
  numerically: array GK21 panels on the smooth core plus geometric
  "shells" toward each endpoint.  A panel is QUADPACK's adaptive 21-point
  Gauss-Kronrod rule with its error estimate, evaluated a refinement level
  at a time.  Shell sums of a power-law endpoint are exactly geometric, so
  a ratio-extrapolated tail recovers the integral to near machine
  precision, while persistently non-decaying shells certify divergence
  (the shells of ``t**-1`` are constant).  As in QUADPACK's QAGP,
  ``points`` names interior abscissae where the integrand may jump or kink
  (weight junctions, the kink of P at its crossing): every panel starts
  from the subintervals between them, and the shells toward an endpoint
  start below the point nearest to it.  Verdicts are ``converged`` /
  ``diverges`` / ``inconclusive``; the last is first-class because
  numerics cannot certify divergence of arbitrary integrands at exponent
  boundaries.

* :class:`LeftCumulative` / :class:`RightCumulative` are the exact route
  for a piecewise power-log model: its one-sided integrals from R1 or to
  R2, as fast callables (``at`` offsets, or radii), two orientations of
  one body (:class:`_Cumulative`).  Convergence at the end an integral
  starts from is decided from exponents alone (``divergent``: R1 needs
  power > -1; a tail needs power < -1, or == -1 with log power < -1), and
  a divergent integral reads inf.  Values come by closed form where the
  antiderivative is elementary, else numerically: finite spans go through
  one panel kernel over offset cells, which evaluates the pieces with
  :meth:`~radial_plap.weights.PowerLogPiece.value`; each cell is split
  geometrically until a panel spans a ratio of at most 2 in the distance
  to its nearest singular factor, and fixed 32-point Gauss-Legendre panels
  then sit at rounding level.  At the singular origin either ``t = y**m``
  makes the integrand smooth or two Taylor terms integrate exactly against
  ``t**A`` on a tiny first stretch; tails use ``r = e**s``, which turns
  them into exponentially decaying integrands.  :func:`interval_integrals`
  gives the integrals over cells, and an integral over a sub-interval is a
  cumulative of a ``restricted`` model.

:func:`level_bracket` finds where a cumulative reaches a level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partialmethod

import numpy as np

from .weights import LEFT_R1, WeightModel, integrable, right_end

INF = math.inf

CONVERGED = "converged"
DIVERGES = "diverges"
INCONCLUSIVE = "inconclusive"


@dataclass
class IntegralResult:
    value: float
    abs_error_estimate: float
    verdict: str
    evaluations: int

    @property
    def converged(self):
        return self.verdict == CONVERGED


class BudgetExceeded(RuntimeError):
    pass


#: points one call of :func:`integrate` may evaluate
_BUDGET = 10**6


class _Counted:
    """Wrap an array integrand, counting points against ``_BUDGET``: checked
    before a batch is evaluated, so a batch that would overrun it is never
    computed."""

    def __init__(self, f):
        self.f, self.n = f, 0

    def __call__(self, x):
        self.n += x.size
        if self.n > _BUDGET:
            raise BudgetExceeded
        return self.f(x)


# QUADPACK's qk21 pair (Piessens et al. 1983): 21 Kronrod abscissae on
# [-1, 1] with their weights; the odd-indexed ones are the 10-point Gauss
# nodes, whose weights sit in _WG (zero elsewhere)
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_XK = np.concatenate([_XK, -_XK[-2::-1]])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WK = np.concatenate([_WK, _WK[-2::-1]])
_WG = np.zeros(21)
_WG[1:10:2] = [0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
               0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
               0.295524224714752870173892994651338]
_WG[11:] = _WG[9::-1]
_EPMACH = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny
#: subinterval cap of one adaptive panel (QUADPACK's ``limit``)
_PANEL_LIMIT = 200


def _gk21(f, lo, hi):
    """qk21 on every [lo[k], hi[k]] with one array call of ``f``.

    Returns (integrals, error estimates, rounding floors).  The estimate is
    QUADPACK's: |K21 - G10| scaled by ``resasc`` (the integral of
    |f - mean|) as resasc * min(1, (200 |K - G| / resasc)**1.5), and never
    below the rounding floor 50 eps ∫|f|.
    """
    half = 0.5 * (hi - lo)
    x = (lo + half)[:, None] + half[:, None] * _XK
    fv = f(x.ravel()).reshape(x.shape)
    resk = fv @ _WK
    dh = np.abs(half)
    resabs = (np.abs(fv) @ _WK) * dh
    resasc = (np.abs(fv - 0.5 * resk[:, None]) @ _WK) * dh
    err = np.abs((resk - fv @ _WG) * half)
    scaled = (resasc != 0.0) & (err != 0.0)
    err[scaled] = resasc[scaled] * np.minimum(
        1.0, (200.0 * err[scaled] / resasc[scaled]) ** 1.5)
    floor = np.where(resabs > _UFLOW / (50.0 * _EPMACH), 50.0 * _EPMACH * resabs, 0.0)
    return resk * half, np.maximum(err, floor), floor


def _panel(f, a, b, rtol, points=()):
    """Adaptive GK21 on a finite interval without endpoint singularities.

    Starts from the subintervals between the sorted ``points`` inside
    (a, b), so a jump or kink there sits on a subinterval edge.  Every round
    bisects, together, the largest-error subintervals until the
    error left outside them would meet ``rtol * |value|``, and evaluates all
    of their children in one array call of ``f``.  A subinterval at its
    rounding floor or too narrow to halve is not split again.  Stops once
    the summed estimate meets the target, nothing is left to split, or the
    subinterval cap is reached; the estimate then says so.
    """
    rtol = max(rtol, 5e-14)
    edges = np.array([a, *(x for x in points if a < x < b), b], dtype=float)
    lo, hi = edges[:-1], edges[1:]
    val, err, floor = _gk21(f, lo, hi)
    while True:
        target = rtol * abs(val.sum())
        room = _PANEL_LIMIT - lo.size
        if err.sum() <= target or room <= 0:
            break
        mid = 0.5 * (lo + hi)
        live = (err > floor) & (mid > lo) & (mid < hi)
        order = np.argsort(-np.where(live, err, -1.0), kind="stable")
        n_live = int(live.sum())
        # bisect the largest until what stays unsplit meets the target
        left_over = err.sum() - np.cumsum(err[order[:n_live]])
        k = min(int(np.searchsorted(-left_over, -target)) + 1, n_live, room)
        if k == 0:
            break
        split = order[:k]
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        new_lo = np.concatenate([lo[split], mid[split]])
        new_hi = np.concatenate([mid[split], hi[split]])
        v, e, fl = _gk21(f, new_lo, new_hi)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], v])
        err = np.concatenate([err[keep], e])
        floor = np.concatenate([floor[keep], fl])
    return float(val.sum()), float(err.sum())


# ---------------------------------------------------------------------------
# generic integrate: shells toward endpoints
# ---------------------------------------------------------------------------

_SHELL_MAX = 400
_DIVERGE_RATIO_SLACK = 1e-9
_ABS_FLOOR = 1e-280
#: a shell sum past this certifies divergence
_DIVERGE_CAP = 1e12


def _settles(x, noise):
    """Whether the last change of ``x`` is at most 0.75 of the one before, or noise."""
    return abs(x[-1] - x[-2]) <= max(0.75 * abs(x[-2] - x[-3]), noise)


def _analyze_shells(shell_iter, f, rtol, scale, tol_goal, points):
    """Sum shell integrals with geometric tail extrapolation.

    ``shell_iter`` yields (x0, x1) pairs marching toward the singular
    endpoint (or out along the tail).  Shell sums of a power endpoint are
    exactly geometric, so the ratio-extrapolated tail is exact there; the
    ratio drift bounds the extrapolation error for everything nearby while
    its changes shrink (:func:`_settles`).  On a log tail they do not, and
    the latest extrapolation stands with an infinite error.  A drift like
    2^-k (a smooth factor, or octaves of offsets about R1 on a tail that is
    a power of r) is removed by one more Δ² step over the extrapolations.
    A shell a few ulps of its edges wide (toward a nonzero endpoint; never
    toward 0) ends the march: inconclusive, with the best candidate seen,
    not a silently truncated sum.  Returns (value, err, verdict).
    """
    total = err = 0.0
    shells, cands, qs, accs = [], [], [], []
    best = None  # (value, err): the most trusted extrapolation, or the latest unbounded one
    for k, (x0, x1) in enumerate(shell_iter):
        if x1 - x0 <= 64.0 * _EPMACH * max(abs(x0), abs(x1)):
            break  # representability floor for the endpoint distance
        s, e = _panel(f, x0, x1, rtol, points)
        total += s
        err += e
        shells.append(s)
        if abs(total) > _DIVERGE_CAP:
            return INF, INF, DIVERGES
        if k < 3:
            continue
        if abs(s) < _ABS_FLOOR and abs(shells[-2]) < _ABS_FLOOR:
            return total, err, CONVERGED
        ratios = [b / a if a != 0.0 else 0.0 for a, b in zip(shells[:-1][-6:], shells[1:][-6:])]
        if (k >= 8 and all(x * s > 0.0 for x in shells[-6:])
                and min(ratios) >= 1.0 - _DIVERGE_RATIO_SLACK):
            return INF, INF, DIVERGES
        recent = ratios[-3:]
        if not all(0.0 < r_ < 0.9995 for r_ in recent):
            cands, accs = [], []
            continue
        rbar = recent[-1]
        tail = s * rbar / (1.0 - rbar)
        floor = abs(tail) * 1e-12 + e / (1.0 - rbar)
        value = total + tail
        tail_err = abs(s) * (max(recent) - min(recent)) / (1.0 - rbar) ** 2 + floor
        # no bound unless the ratio changes shrink (or sit at the shells'
        # rounding); on a log tail the ratios creep to 1 like 1 - m/k
        if not _settles(recent, 4.0 * e / abs(s)):
            tail_err = INF
        # the Δ² step over the last three extrapolations, whose changes
        # shrink by a q < 0.75 that settles where no drift bound holds (on a
        # log tail q creeps to 1), trusted once two in a row beat that bound
        cands = cands[-2:] + [value]
        d1, d2 = (cands[1] - cands[0], cands[2] - cands[1]) if len(cands) == 3 else (0.0, 0.0)
        q = d2 / d1 if d1 != 0.0 else 0.0
        qs = qs[-2:] + [q] if len(cands) == 3 else []
        trusted = 0.0 < q < 0.75 and (tail_err < INF or len(qs) == 3
                                      and _settles(qs, 4.0 * floor / abs(d1)))
        accs = accs[-1:] + [value + d2 * q / (1.0 - q) if trusted else None]
        if len(accs) == 2 and None not in accs:
            acc_err = abs(accs[1] - accs[0]) + floor
            if acc_err < tail_err:
                value, tail_err = accs[1], acc_err
        if best is None or tail_err < best[1] or tail_err == INF:
            best = (value, err + tail_err)
        if tail_err <= 0.25 * tol_goal * (scale + abs(value)):
            return value, err + tail_err, CONVERGED
    # short of the rule above; with no extrapolation, nothing bounds the tail
    value, err = best or (total, INF)
    return value, err, INCONCLUSIVE


def _shells(end, d):
    """Shells halving toward ``end`` from the distance |d|: d > 0 approaches
    from the right of ``end``, d < 0 from its left."""
    for k in range(_SHELL_MAX):
        near, far = end + d * 2.0 ** -(k + 1), end + d * 2.0**-k
        yield (near, far) if d > 0.0 else (far, near)


def integrate(f, a, b, tol=1e-10, points=()):
    """Integrate ``f`` over (a, b) with endpoint singularities allowed.

    ``f`` maps a 1-D array of abscissae to the array of its values; it is
    called once per refinement level of each panel (array GK21 panels on
    the smooth core, then shell by shell), never point by point.
    ``b`` may be ``math.inf``.  ``points`` are radii where ``f`` may jump or
    kink (QUADPACK's QAGP breakpoints); those outside (a, b) are ignored.
    Every panel starts split at the ones inside it, and the shells toward
    ``a`` (and toward a finite ``b``) start below the point nearest to that
    end.  The result's verdict is ``converged`` only if the combined error
    estimate meets ``tol * (1 + |value|)``; divergence is
    reported when shell sums exceed ``_DIVERGE_CAP`` or endpoint shells
    persistently fail to decay.  ``_BUDGET`` caps the points evaluated; a
    batch that would exceed it is not evaluated, and the result is
    ``inconclusive``, never a silently truncated value.  ValueError unless
    a < b and ``tol`` is finite and positive.
    """
    if not a < b:
        raise ValueError(f"need a < b, got ({a}, {b})")
    if not 0.0 < tol < INF:
        raise ValueError(f"tol must be finite and positive, not {tol}")
    cf = _Counted(f)
    try:
        value, err, verdict = _driver(cf, a, b, tol, sorted({float(x) for x in points}))
    except BudgetExceeded:
        return IntegralResult(math.nan, INF, INCONCLUSIVE, cf.n)
    return IntegralResult(value, err, verdict, cf.n)


def _clear_of(points, end, d):
    """|d| halved until no point lies strictly between ``end`` and
    ``end + d``, so the shells toward ``end`` hold none.  Halving, rather
    than starting at the point itself, keeps the shell edges at the same
    binary fractions of ``d`` from ``end`` (exact offsets when ``end`` and
    ``d`` are round): rounded shell widths would make the shell sums noisy
    near the endpoint and stall the tail extrapolation."""
    for x in points:
        while min(end, end + d) < x < max(end, end + d):
            d *= 0.5
    return abs(d)


def _driver(cf, a, b, tol, points):
    """The core panel, then the shells toward ``a``, then those toward a
    finite ``b`` or the octaves out along an infinite one.  Each shell stack
    starts at the distance ``d`` halved below the points (:func:`_clear_of`):
    shells with a jump or a kink in them, such as P σ's kink at t* << d,
    rise before the endpoint's power sets in and read as divergence."""
    rtol = tol * 1e-3
    if math.isfinite(b):
        d = (b - a) / 4.0
        d_b = _clear_of(points, b, -d)
        far = _shells(b, -d_b)
        core_hi = b - d_b
    else:
        d = max(1.0, 0.5 * max(a, 1.0))
        core_hi = 2.0 * (a + d)
        far = ((core_hi * 2.0**k, core_hi * 2.0 ** (k + 1)) for k in range(900))
    d_a = _clear_of(points, a, d)
    value, err = _panel(cf, a + d_a, core_hi, rtol, points)
    scale = 1.0 + abs(value)
    converged = True
    for shells in (_shells(a, d_a), far):
        v, e, verdict = _analyze_shells(shells, cf, rtol, scale, tol, points)
        if verdict == DIVERGES:
            return INF, INF, DIVERGES
        value += v
        err += e
        converged = converged and verdict == CONVERGED
    # field invariant: converged implies abs_error_estimate <= tol (1 + |value|)
    if converged and err <= tol * (1.0 + abs(value)):
        return value, err, CONVERGED
    return value, err, INCONCLUSIVE


# ---------------------------------------------------------------------------
# power-log piece integrals: closed forms, offset-coordinate panels, tails
# ---------------------------------------------------------------------------

#: nodes of one Gauss-Legendre panel, and the rule's abscissae and weights
_GL_N = 32
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_N)
#: reach of the Taylor start at the singular origin, as a share of the
#: distance to the nearest singularity of the smooth factor
_TAYLOR_REACH = 3e-9
#: panels evaluated together; bounds the kernel's node temporaries
_BLOCK_PANELS = 256
#: relative rounding bound reported for fixed-rule panel sums
_PANEL_RTOL = 1e-14
#: relative accuracy at which the adaptive routes of the exact power-log
#: integrals (tails and the spectral singular start) stop
_EXACT_RTOL = 1e-12


def _gl_panels(fvec, a, b, segments, grading=1.0):
    """Composite fixed Gauss-Legendre; edges graded toward ``a`` if asked."""
    u = np.linspace(0.0, 1.0, segments + 1)
    if grading != 1.0:
        u = u**grading
    edges = a + (b - a) * u
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    vals = fvec(nodes.ravel()).reshape(nodes.shape)
    return float(np.sum(vals @ _GL_W * half)), nodes.size


def _gl_adaptive(fvec, a, b, tol, grading=1.0, segments=1, cap=256):
    """Double the panels from ``min(segments, cap)`` until two sums agree to
    ``tol`` relative, or stop after the first pass over ``cap``: (last sum,
    its difference from the one before, evaluations)."""
    segments = min(segments, cap)
    prev = None
    nev = 0
    while True:
        val, n = _gl_panels(fvec, a, b, segments, grading=grading)
        nev += n
        if prev is not None and abs(val - prev) <= tol * abs(val):
            return val, abs(val - prev), nev
        if segments > cap:
            return val, abs(val - prev), nev
        prev = val
        segments *= 2


def _power_int(base, gap, e):
    """∫ s^e ds from ``base`` > 0 (or 0 when e > -1) to ``base + gap``.

    ``gap`` may be inf (needs e < -1).  The difference of powers is formed
    as base^(e+1) expm1((e+1) log1p(gap/base)), so narrow spans keep their
    digits.  Returns None where the integral is not finite, and inf where
    it is finite but past the largest float (a steep power next to 0, say).
    """
    k = e + 1.0
    try:
        if not math.isfinite(gap):
            return -(base**k) / k if k < 0.0 else None
        if base == 0.0:
            return gap**k / k if k > 0.0 else None
        rel = math.log1p(gap / base)
        if k == 0.0:
            return rel
        if k * rel > 700.0:
            return ((base + gap) ** k - base**k) / k
        return base**k * math.expm1(k * rel) / k
    except OverflowError:
        # every branch above is positive: a float power that overflows is
        # a value above the float range
        return math.inf


def _closed_form(c, A, B, L, r1, t0, t1):
    """Elementary antiderivative cases over the offsets (t0, t1), or None."""
    gap = t1 - t0
    val = None
    if A == 0.0 and L == 0.0:
        val = _power_int(r1 + t0, gap, B)
    elif B == 0.0 and L == 0.0:
        val = _power_int(t0, gap, A)
    elif A == 0.0 and B == -1.0:
        # s = log r: ∫ s^L ds
        val = _power_int(math.log1p((r1 - 1.0) + t0), math.log1p(gap / (r1 + t0)), L)
    return None if val is None else c * val


def _offset_cells(piece, r1, t0, t1):
    """∫ of one piece over each offset cell [t0[k], t1[k]].

    The cells are given in offset coordinates ``t = r - r1``, so cells next
    to the origin keep every digit of their width.  Each cell is split
    geometrically in ``t + shift`` until one panel spans a ratio of at most
    2; the shift is that of the nearest singular factor (0 for t^A, r1 - 1
    for the log, r1 for r^B), so every factor is analytic on a Bernstein
    ellipse of parameter >= 3 + 2*sqrt(2) around each panel and the fixed
    32-point rule sits at rounding level.  Needs finite t1 >= t0 >= 0, with
    t0 > 0 where the piece has a t power.  Returns (cell integrals,
    integrand evaluations).
    """
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    shifts = [s for s, e in ((0.0, piece.a), (r1 - 1.0, piece.l), (r1, piece.b)) if e != 0.0]
    if shifts:
        shift = min(shifts)
        ratio = (t1 + shift) / (t0 + shift)
        m = np.maximum(np.ceil(np.log2(ratio)), 1.0).astype(np.intp)
    else:
        m = np.ones(t0.shape, dtype=np.intp)
    n_pan = int(m.sum())
    if n_pan == t0.size:
        lo, hi, start = t0, t1, None
    else:
        start = np.cumsum(m) - m
        cell = np.repeat(np.arange(t0.size), m)
        frac = (np.arange(n_pan) - start[cell]) / m[cell]
        lo = (t0 + shift)[cell] * ratio[cell] ** frac - shift
        lo[start] = t0
        hi = np.empty(n_pan)
        hi[:-1] = lo[1:]
        hi[start + m - 1] = t1
    vals = np.empty(n_pan)
    for s in range(0, n_pan, _BLOCK_PANELS):
        a, b = lo[s:s + _BLOCK_PANELS], hi[s:s + _BLOCK_PANELS]
        half = 0.5 * (b - a)
        nodes = (a + half)[:, None] + half[:, None] * _GL_X
        vals[s:s + _BLOCK_PANELS] = piece.value(nodes, r1) @ _GL_W * half
    if start is not None:
        vals = np.add.reduceat(vals, start)
    return vals, n_pan * _GL_N


def _piece_partial(piece, r1, t0, t1):
    """∫ of one power-log piece over the offsets (t0, t1), if convergent.

    ``t0`` may sit on the singular origin (t0 == 0) and ``t1`` may be inf;
    returns (value, err, evaluations).  The tails and the spectral singular
    start stop at ``_EXACT_RTOL``; the rest are fixed rules.
    """
    c, A, B, L = piece.c, piece.a, piece.b, piece.l
    closed = _closed_form(c, A, B, L, r1, t0, t1)
    if closed is not None:
        return closed, abs(closed) * 1e-15, 0

    if not math.isfinite(t1):
        # the tail in s = log r starts where (1 - r1/r)^A and log(r)^L are
        # smooth on its panels (r >= 2 r1, r >= e); the offset panels take
        # what lies before
        mid = max(t0, r1, math.e - r1 if L != 0.0 else 0.0, 1.0 if t0 <= 0.0 else 0.0)
        v, e, n = _tail_gl(c, A, B, L, r1, r1 + mid)
        if mid > t0:
            hv, he, hn = _piece_partial(piece, r1, t0, mid)
            v, e, n = v + hv, e + he, n + hn
        return v, e, n
    if t0 <= 0.0:
        return _left_singular(piece, r1, t1)
    v, n = _offset_cells(piece, r1, [t0], [t1])
    return float(v[0]), abs(float(v[0])) * _PANEL_RTOL, n


def _left_singular(piece, r1, d):
    """∫_0^d c t^A (r1+t)^B log(r1+t)^L dt (needs A > -1).

    With t = y**m, m = ceil(3/(1+A)) for A < 0, the integrand becomes
    y**(m(1+A)-1) times a smooth factor.  Where that power is a whole
    number, doubling Gauss-Legendre panels converge spectrally and stop on
    a relative test.  Elsewhere a fractional power would leave them at
    algebraic convergence, so the smooth factor g(t) = c (r1+t)^B
    log(r1+t)^L, analytic for |t| < delta (delta = r1, or r1 - 1 with the
    log), is instead expanded to two Taylor terms on [0, eps], eps =
    min(d, _TAYLOR_REACH delta / (1+|B|+|L|)), which integrate exactly
    against t^A to a relative (eps/delta)**2; the offset panels take
    [eps, d].  Either way Φ is accurate relative to its value, however
    small.
    """
    c, A, B, L = piece.c, piece.a, piece.b, piece.l
    if A <= -1.0:
        raise ValueError("divergent left endpoint reached the numeric path")
    m = 1.0 if A >= 0.0 else float(math.ceil(3.0 / (1.0 + A)))
    power = m * (1.0 + A) - 1.0
    if power.is_integer():

        def fvec(y):
            r = r1 + y**m
            out = c * m * np.power(y, power)
            if B != 0.0:
                out = out * np.power(r, B)
            if L != 0.0:
                out = out * np.power(np.log(r), L)
            return out

        return _gl_adaptive(fvec, 0.0, d ** (1.0 / m), _EXACT_RTOL, grading=2.0)

    delta = r1 if L == 0.0 else r1 - 1.0
    eps = min(d, _TAYLOR_REACH * delta / (1.0 + abs(B) + abs(L)))
    g0 = c * r1**B
    dlog = B / r1  # g'(0) / g(0)
    if L != 0.0:
        log_r1 = math.log1p(r1 - 1.0)
        g0 *= log_r1**L
        dlog += L / (r1 * log_r1)
    v = g0 * eps ** (A + 1.0) * (1.0 / (A + 1.0) + dlog * eps / (A + 2.0))
    n = 0
    if d > eps:
        rest, n = _offset_cells(piece, r1, [eps], [d])
        v += float(rest[0])
    return v, abs(v) * _PANEL_RTOL, n


def _tail_gl(c, A, B, L, r1, x0):
    """∫_{x0}^inf via r = e**s; integrand ~ e^{-kappa s} s^L, kappa = -(A+B+1).
    A decaying tail is cut 45/kappa or more past s0, on 2 panels per unit s
    but at most 4096 (kappa < 0.02, a slow tail, starts on wider panels); at
    kappa = 0 and L < -1, the s^L part past s0 + 50 is exact."""
    kappa = -(A + B + 1.0)
    s0 = math.log(x0)
    if kappa <= 0.0:
        if not (kappa == 0.0 and L < -1.0):
            raise ValueError("divergent tail reached the numeric path")
        # c (1 - r1/r)^A s^L: split off the exactly integrable s^L tail
        s_cut = s0 + 50.0

        def fvec(s):
            out = c * np.power(s, L)
            if A != 0.0:
                out = out * np.power(1.0 - r1 * np.exp(-s), A)
            return out

        v1, e1, n1 = _gl_adaptive(fvec, s0, s_cut, _EXACT_RTOL)
        v2 = -c * s_cut ** (L + 1.0) / (L + 1.0)
        return v1 + v2, e1 + abs(v2) * 1e-14, n1

    s_end = s0 + 45.0 / kappa
    for _ in range(4):
        rel = math.exp(-kappa * (s_end - s0)) * max(s_end / max(s0, 1.0), 1.0) ** max(L, 0.0)
        if rel < 1e-18:
            break
        s_end += 10.0 / kappa

    def fvec(s):
        out = c * np.exp((A + B + 1.0) * s)
        if L != 0.0:
            out = out * np.power(s, L)
        if A != 0.0:
            out = out * np.power(1.0 - r1 * np.exp(-s), A)
        return out

    segments = max(8, int(2 * (s_end - s0)))
    return _gl_adaptive(fvec, s0, s_end, _EXACT_RTOL, segments=segments, cap=4096)


# ---------------------------------------------------------------------------
# cumulative one-sided integrals
# ---------------------------------------------------------------------------


def _piece_cells(piece, r1, t0, t1):
    """∫ of one piece over each offset cell [t0[k], t1[k]] (the kernel).

    Cells touching the origin (t0 <= 0) or reaching infinity are rare and
    take the scalar :func:`_piece_partial` route on Python floats, so a
    value past the float range is inf, as in a scalar query.
    """
    odd = (t0 <= 0.0) | ~np.isfinite(t1)
    if not odd.any():
        return _offset_cells(piece, r1, t0, t1)[0]
    out = np.empty(t0.shape)
    reg = ~odd
    out[reg] = _offset_cells(piece, r1, t0[reg], t1[reg])[0]
    for k in np.flatnonzero(odd):
        live = t1[k] > max(t0[k], 0.0)
        out[k] = _piece_partial(piece, r1, float(t0[k]), float(t1[k]))[0] if live else 0.0
    return out


class _Cumulative:
    """Φ(r) = ∫_{R1}^{r} (``left``) or Ψ(r) = ∫_{r}^{R2} of a power-log
    model; +inf everywhere if divergent.  :meth:`at` takes offsets
    ``t = r - R1`` (a call takes radii and converts them).  A query in a
    piece is its base (the total of the whole pieces between it and the end
    Φ or Ψ starts from) plus the integral from its edge (:meth:`_edge`: R1
    or its left end for Φ, its right end for Ψ) to t: no total reaches the
    other end, which may diverge, and no near-equal totals are subtracted.
    A single query adds one
    :func:`_piece_partial` call.  An array query is sorted once and grouped
    by piece; the cells between the edge and consecutive queries go to
    :func:`_piece_cells` in ascending order (the offset panel kernel, or
    :func:`_piece_partial` for a cell touching R1 or infinity), and a running
    sum from the edge gives the envelope.

    So a value depends on the other offsets in its query, at about 1e-15
    relative.  The single-query path is there for speed: through the array
    path a lone query takes up to about twice as long."""

    def __init__(self, model: WeightModel, left):
        self.model, self.left = model, left
        self.divergent = not integrable(model, LEFT_R1 if left else right_end(model.r2))
        n = len(model.pieces)
        base = [0.0] * n
        if not self.divergent:
            for i in range(1, n) if left else range(n - 2, -1, -1):
                j = i - 1 if left else i + 1
                pc = model.pieces[j]
                base[i] = base[j] + self._partial(pc, (pc.hi if left else pc.lo) - model.r1)
        self._base = base

    def _edge(self, piece):
        """The offset the piece's integral starts from."""
        edge = max(piece.lo, self.model.r1) if self.left else piece.hi
        return edge - self.model.r1

    def _partial(self, piece, t):
        """∫ of ``piece`` between its edge and the offset ``t``."""
        span = (self._edge(piece), t) if self.left else (t, self._edge(piece))
        return _piece_partial(piece, self.model.r1, *span)[0]

    def at(self, t):
        """Φ or Ψ at the offsets ``t = r - R1``."""
        scalar = np.isscalar(t)
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if self.divergent:
            return INF if scalar else np.full(ts.shape, INF)
        model, left = self.model, self.left
        if ts.size == 1:
            tj = float(ts.flat[0])
            i = model.piece_index(tj)
            edge, v = self._edge(model.pieces[i]), self._base[i]
            if tj > edge if left else tj < edge:
                v += self._partial(model.pieces[i], tj)
            return v if scalar else np.full(ts.shape, v)
        flat = ts.ravel()
        order = np.argsort(flat, kind="stable")
        q = flat[order]
        idx = model.piece_index(q)
        starts = np.flatnonzero(np.diff(idx, prepend=-1))
        vals = np.empty(q.shape)
        step = 1 if left else -1
        for s, e in zip(starts, np.append(starts[1:], q.size)):
            piece, run, qi = model.pieces[idx[s]], vals[s:e], q[s:e]
            edge = self._edge(piece)
            k = int(np.searchsorted(qi, edge, side="right" if left else "left"))
            live = slice(k, None) if left else slice(0, k)
            ends = np.concatenate([[edge], qi[live]] if left else [qi[live], [edge]])
            gaps = _piece_cells(piece, model.r1, ends[:-1], ends[1:])
            run[:] = self._base[idx[s]]
            run[live] += np.cumsum(gaps[::step])[::step]
        out = np.empty(flat.shape)
        out[order] = vals
        return out.reshape(ts.shape)

    def _at_radii(self, r):
        """Φ or Ψ at the radii ``r``: :meth:`at` their offsets from R1."""
        return self.at(np.subtract(r, self.model.r1))


class LeftCumulative(_Cumulative):
    """Φ(r) = ∫_{R1}^{r} of a power-log model (see :class:`_Cumulative`)."""

    __init__ = partialmethod(_Cumulative.__init__, left=True)
    # bound here, not inherited: the bench tracer hooks a class's own __call__
    __call__ = _Cumulative._at_radii


class RightCumulative(_Cumulative):
    """Ψ(r) = ∫_{r}^{R2} of a power-log model (see :class:`_Cumulative`)."""

    __init__ = partialmethod(_Cumulative.__init__, left=False)
    # bound here, not inherited: the bench tracer hooks a class's own __call__
    __call__ = _Cumulative._at_radii


def level_bracket(env, level, lo, hi, rel, increasing=True, top=INF):
    """(lo, hi) with hi/lo < 1 + rel around the x > 0 where the monotone
    ``env`` reaches ``level``; short of it means below it if ``increasing``,
    else at or above it.  ``hi`` doubles, ``lo`` following it, while short
    of the level (at most 200 times, never past ``top``); then the bracket
    is halved at its geometric mean.  A level reached at ``lo`` keeps ``lo``.
    """
    def short(x):
        return (env(x) < level) == increasing

    for _ in range(200):
        if hi >= top or not short(hi):
            break
        lo, hi = hi, min(2.0 * hi, top)
    for _ in range(200):
        if hi / lo < 1.0 + rel:
            break
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if short(mid) else (lo, mid)
    return lo, hi


def interval_integrals(model: WeightModel, edges):
    """∫ of the model over each [edges[i], edges[i+1]] (radii), vectorized.

    The edges become offsets from R1, and cells crossing piece junctions are
    split there and summed.  Every sub-cell goes through the offset panel
    kernel except one that starts at R1, which takes the singular
    :func:`_piece_partial` route.
    """
    edges = np.subtract(edges, model.r1, dtype=float)
    n = len(edges) - 1
    if n < 1:
        return np.zeros(0)
    cuts = model._t_los[1:]
    cuts = cuts[(edges[0] < cuts) & (cuts < edges[-1]) & ~np.isin(cuts, edges)]
    lo = np.concatenate([edges[:-1], cuts])
    cell = np.concatenate([np.arange(n), np.searchsorted(edges, cuts, side="right") - 1])
    order = np.lexsort((lo, cell))
    lo, cell = lo[order], cell[order]
    hi = np.empty(lo.shape)
    hi[:-1] = lo[1:]
    last = np.append(cell[1:] != cell[:-1], True)
    hi[last] = edges[cell[last] + 1]
    idx = model.piece_index(lo)
    vals = np.empty(lo.shape)
    for i in np.unique(idx):
        m = idx == i
        vals[m] = _piece_cells(model.pieces[i], model.r1, lo[m], hi[m])
    return np.bincount(cell, weights=vals, minlength=n)
