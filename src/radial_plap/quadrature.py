"""Improper-integral quadrature with certificates.

Two routes are provided and kept deliberately independent:

* :func:`integrate` takes an opaque array integrand (an array of abscissae
  in, an array of values out) and works numerically: array GK21 panels on
  the smooth core plus geometric "shells" toward each endpoint.  A panel is
  QUADPACK's adaptive 21-point Gauss-Kronrod rule with its error estimate,
  evaluated a refinement level at a time: every node of every subinterval
  being split goes to the integrand in one call.  Shell sums of a
  power-law endpoint are exactly geometric, so a ratio-extrapolated tail
  recovers the integral to near machine precision, while persistently
  non-decaying shells certify divergence (the shells of ``(r-a)**-1`` are
  constant).  Verdicts are ``converged`` / ``diverges`` /
  ``inconclusive``; the last is first-class because numerics cannot certify
  divergence of arbitrary integrands at exponent boundaries.

* :func:`integrate_exact_powerlog` takes a piecewise power-log model, decides
  convergence from exponents alone (left endpoint needs power > -1; a tail
  needs power < -1, or == -1 with log power < -1), and evaluates by closed
  form where the antiderivative is elementary, else numerically.  Finite
  spans go through one panel kernel that works in the offset coordinate
  ``t = r - R1``, so cells next to R1 keep every digit of their width: each
  cell is split geometrically until a panel spans a ratio of at most 2 in
  the distance to its nearest singular factor, and fixed 32-point
  Gauss-Legendre panels then sit at rounding level.  At the singular origin
  either ``t = y**m`` makes the integrand smooth or two Taylor terms
  integrate exactly against ``t**A`` on a tiny first stretch; tails use
  ``r = e**s``, which turns them into exponentially decaying integrands.

:class:`LeftCumulative` / :class:`RightCumulative` expose the one-sided
integrals of a model as fast callables; both always integrate *away* from the
singular endpoint, never by subtracting near-equal totals.  An array query is
sorted once: the gaps between consecutive queries are cells of the panel
kernel, and a running sum turns them into the envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import WeightModel, local_exponents, LEFT_R1, INFINITY

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

    @property
    def diverges(self):
        return self.verdict == DIVERGES


class BudgetExceeded(RuntimeError):
    pass


class _Counted:
    """Wrap an array integrand, counting points against a budget.

    The budget is checked before a batch is evaluated, so a batch that
    would overrun it is never computed.
    """

    def __init__(self, f, budget):
        self.f = f
        self.budget = budget
        self.n = 0

    def __call__(self, x):
        self.n += x.size
        if self.n > self.budget:
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


def _panel(f, a, b, rtol):
    """Adaptive GK21 on a finite interval without endpoint singularities.

    Every round bisects, together, the largest-error subintervals until the
    error left outside them would meet ``rtol * |value|``, and evaluates all
    of their children in one array call of ``f``.  A subinterval at its
    rounding floor or too narrow to halve is not split again.  Stops once
    the summed estimate meets the target, nothing is left to split, or the
    subinterval cap is reached; the estimate then says so.
    """
    rtol = max(rtol, 5e-14)
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
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


class _ShellOutcome(Exception):
    pass


def _analyze_shells(shell_iter, f, rtol, cap, scale, tol_goal):
    """Sum shell integrals with geometric tail extrapolation.

    ``shell_iter`` yields (x0, x1) pairs marching toward the singular
    endpoint (or out along the tail).  Shell sums of a power endpoint are
    exactly geometric, so the ratio-extrapolated tail is exact there; the
    ratio drift bounds the extrapolation error for everything nearby.  Near
    representability (where evaluating r - a loses the endpoint distance)
    the best candidate seen is returned rather than a silently truncated
    sum.  Returns (value, err, verdict).
    """
    total = 0.0
    err = 0.0
    shells = []
    best = None  # (value, err) of the most trusted extrapolation so far

    def finish():
        if best is not None:
            value, tail_err = best
            ok = tail_err <= 0.5 * tol_goal * (1.0 + abs(value))
            return value, tail_err, CONVERGED if ok else INCONCLUSIVE
        return total, err, INCONCLUSIVE

    for k, (x0, x1) in enumerate(shell_iter):
        if x1 - x0 <= 64.0 * np.finfo(float).eps * max(1.0, abs(x1)):
            return finish()  # representability floor for the endpoint distance
        s, e = _panel(f, x0, x1, rtol)
        total += s
        err += e
        shells.append(s)
        if abs(total) > cap:
            return INF, INF, DIVERGES
        if k < 3:
            continue
        if abs(shells[-1]) < _ABS_FLOOR and abs(shells[-2]) < _ABS_FLOOR:
            return total, err, CONVERGED
        tail_ratios = []
        for i in range(max(1, len(shells) - 6), len(shells)):
            prev = shells[i - 1]
            tail_ratios.append(shells[i] / prev if prev != 0.0 else 0.0)
        recent = tail_ratios[-3:]
        same_sign = all(s_ * shells[-1] > 0.0 for s_ in shells[-6:])
        if (
            k >= 8
            and same_sign
            and len(tail_ratios) >= 6
            and min(tail_ratios[-6:]) >= 1.0 - _DIVERGE_RATIO_SLACK
        ):
            return INF, INF, DIVERGES
        if all(0.0 < r_ < 0.9995 for r_ in recent):
            rbar = recent[-1]
            drift = max(recent) - min(recent)
            tail = shells[-1] * rbar / (1.0 - rbar)
            tail_err = (
                abs(shells[-1]) * drift / (1.0 - rbar) ** 2
                + abs(tail) * 1e-12
                + e / (1.0 - rbar)
            )
            if best is None or tail_err < best[1]:
                best = (total + tail, err + tail_err)
            if tail_err <= 0.25 * tol_goal * (scale + abs(total + tail)):
                return total + tail, err + tail_err, CONVERGED
    return finish()


def _left_shells(f, a, d, rtol, cap, scale, tol_goal):
    def gen():
        for k in range(_SHELL_MAX):
            yield a + d * 2.0 ** -(k + 1), a + d * 2.0**-k

    return _analyze_shells(gen(), f, rtol, cap, scale, tol_goal)


def _right_shells(f, b, d, rtol, cap, scale, tol_goal):
    def gen():
        for k in range(_SHELL_MAX):
            yield b - d * 2.0**-k, b - d * 2.0 ** -(k + 1)

    return _analyze_shells(gen(), f, rtol, cap, scale, tol_goal)


def _tail_octaves(f, t0, rtol, cap, scale, tol_goal):
    def gen():
        for k in range(900):
            yield t0 * 2.0**k, t0 * 2.0 ** (k + 1)

    return _analyze_shells(gen(), f, rtol, cap, scale, tol_goal)


def integrate(f, a, b, tol=1e-10, budget=10**6, cap=1e12):
    """Integrate ``f`` over (a, b) with endpoint singularities allowed.

    ``f`` maps a 1-D array of abscissae to the array of its values; it is
    called once per refinement level of each panel (array GK21 panels on
    the smooth core, then shell by shell), never point by point.
    ``b`` may be ``math.inf``.  The result's verdict is ``converged`` only if
    the combined error estimate meets ``tol * (1 + |value|)``; divergence is
    reported when shell sums exceed ``cap`` or endpoint shells persistently
    fail to decay.  ``budget`` caps the points evaluated; a batch that would
    exceed it is not evaluated, and the result is ``inconclusive``, never a
    silently truncated value.
    """
    if not a < b:
        raise ValueError(f"need a < b, got ({a}, {b})")
    cf = _Counted(f, budget)
    try:
        value, err, verdict = _driver(cf, a, b, tol, cap)
    except BudgetExceeded:
        return IntegralResult(math.nan, INF, INCONCLUSIVE, cf.n)
    return IntegralResult(value, err, verdict, cf.n)


def _driver(cf, a, b, tol, cap):
    rtol = tol * 1e-3
    if math.isfinite(b):
        d = (b - a) / 4.0
        core, core_err = _panel(cf, a + d, b - d, rtol)
        scale = 1.0 + abs(core)
        lv, le, lverdict = _left_shells(cf, a, d, rtol, cap, scale, tol)
        if lverdict == DIVERGES:
            return INF, INF, DIVERGES
        rv, re_, rverdict = _right_shells(cf, b, d, rtol, cap, scale, tol)
        if rverdict == DIVERGES:
            return INF, INF, DIVERGES
        parts = (lverdict, rverdict)
        value = core + lv + rv
        err = core_err + le + re_
    else:
        d = max(1.0, 0.5 * max(a, 1.0))
        t0 = 2.0 * (a + d)
        core, core_err = _panel(cf, a + d, t0, rtol)
        scale = 1.0 + abs(core)
        lv, le, lverdict = _left_shells(cf, a, d, rtol, cap, scale, tol)
        if lverdict == DIVERGES:
            return INF, INF, DIVERGES
        tv, te, tverdict = _tail_octaves(cf, t0, rtol, cap, scale, tol)
        if tverdict == DIVERGES:
            return INF, INF, DIVERGES
        parts = (lverdict, tverdict)
        value = core + lv + tv
        err = core_err + le + te
    # field invariant: converged implies abs_error_estimate <= tol (1 + |value|)
    if all(p == CONVERGED for p in parts) and err <= tol * (1.0 + abs(value)):
        return value, err, CONVERGED
    return value, err, INCONCLUSIVE


# ---------------------------------------------------------------------------
# power-log piece integrals: closed forms, offset-coordinate panels, tails
# ---------------------------------------------------------------------------

#: nodes of one Gauss-Legendre panel of the offset kernel
_GL_N = 32
#: reach of the Taylor start at the singular origin, as a share of the
#: distance to the nearest singularity of the smooth factor
_TAYLOR_REACH = 3e-9
#: panels evaluated together; bounds the kernel's node temporaries
_BLOCK_PANELS = 256
#: relative rounding bound reported for fixed-rule panel sums
_PANEL_RTOL = 1e-14

_GL_CACHE = {}


def _gl(n):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _gl_panels(fvec, a, b, segments, n=32, grading=1.0):
    """Composite fixed Gauss-Legendre; edges graded toward ``a`` if asked."""
    x, wt = _gl(n)
    u = np.linspace(0.0, 1.0, segments + 1)
    if grading != 1.0:
        u = u**grading
    edges = a + (b - a) * u
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    vals = fvec(nodes.ravel()).reshape(nodes.shape)
    return float(np.sum(vals @ wt * half)), nodes.size


def _gl_adaptive(fvec, a, b, tol, grading=1.0, max_segments=512):
    """Double the panels until two sums agree to ``tol`` relative."""
    prev = None
    segments = 1
    nev = 0
    while True:
        val, n = _gl_panels(fvec, a, b, segments, grading=grading)
        nev += n
        if prev is not None and abs(val - prev) <= tol * abs(val):
            return val, abs(val - prev), nev
        if segments >= max_segments:
            return val, abs(val - prev) if prev is not None else abs(val), nev
        prev = val
        segments *= 2


def _merged_exponents(piece, r1):
    """(c, A, B, L) with the r**b factor folded into (r-R1)**a when R1 == 0."""
    if r1 == 0.0:
        return piece.c, 0.0, piece.a + piece.b, piece.l
    return piece.c, piece.a, piece.b, piece.l


def _power_int(base, gap, e):
    """∫ s^e ds from ``base`` > 0 (or 0 when e > -1) to ``base + gap``.

    ``gap`` may be inf (needs e < -1).  The difference of powers is formed
    as base^(e+1) expm1((e+1) log1p(gap/base)), so narrow spans keep their
    digits.  Returns None where the integral is not finite.
    """
    k = e + 1.0
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


def _closed_form(c, A, B, L, r1, x0, x1):
    """Elementary antiderivative cases; returns value or None."""
    gap = x1 - x0
    val = None
    if A == 0.0 and L == 0.0:
        val = _power_int(x0, gap, B)
    elif B == 0.0 and L == 0.0:
        val = _power_int(x0 - r1, gap, A)
    elif A == 0.0 and B == -1.0:
        # s = log r: ∫ s^L ds
        val = _power_int(math.log1p(x0 - 1.0), math.log1p(gap / x0), L)
    return None if val is None else c * val


def _integrand(c, A, B, L, r1, t):
    """c t^A (r1+t)^B log(r1+t)^L at offsets ``t = r - r1``."""
    out = np.full(t.shape, c)
    if A != 0.0:
        out = out * np.power(t, A)
    if B != 0.0:
        out = out * np.power(r1 + t, B)
    if L != 0.0:
        out = out * np.power(np.log1p((r1 - 1.0) + t), L)
    return out


def _offset_cells(c, A, B, L, r1, t0, t1):
    """∫ c t^A (r1+t)^B log(r1+t)^L dt over each cell [t0[k], t1[k]].

    The cells are given in offset coordinates ``t = r - r1``, so cells next
    to the origin keep every digit of their width.  Each cell is split
    geometrically in ``t + shift`` until one panel spans a ratio of at most
    2; the shift is that of the nearest singular factor (0 for t^A, r1 - 1
    for the log, r1 for r^B), so every factor is analytic on a Bernstein
    ellipse of parameter >= 3 + 2*sqrt(2) around each panel and the fixed
    32-point rule sits at rounding level.  Needs finite t1 >= t0 >= 0, with
    t0 > 0 where A != 0.  Returns (cell integrals, integrand evaluations).
    """
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    shifts = [s for s, on in ((0.0, A != 0.0), (r1 - 1.0, L != 0.0), (r1, B != 0.0)) if on]
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
    x, wt = _gl(_GL_N)
    vals = np.empty(n_pan)
    for s in range(0, n_pan, _BLOCK_PANELS):
        a, b = lo[s:s + _BLOCK_PANELS], hi[s:s + _BLOCK_PANELS]
        half = 0.5 * (b - a)
        nodes = (a + half)[:, None] + half[:, None] * x
        vals[s:s + _BLOCK_PANELS] = _integrand(c, A, B, L, r1, nodes) @ wt * half
    if start is not None:
        vals = np.add.reduceat(vals, start)
    return vals, n_pan * _GL_N


def _piece_partial(piece, r1, x0, x1, tol=1e-12):
    """∫_{x0}^{x1} of one power-log piece, assuming convergence.

    ``x0`` may sit on the singular origin (x0 == r1) and ``x1`` may be inf;
    returns (value, err, evaluations).  ``tol`` steers the adaptive routes
    (tails and the spectral singular start); the rest are fixed rules.
    """
    c, A, B, L = _merged_exponents(piece, r1)
    closed = _closed_form(c, A, B, L, r1, x0, x1)
    if closed is not None:
        return closed, abs(closed) * 1e-15, 0

    if not math.isfinite(x1):
        # the tail in s = log r starts where (1 - r1/r)^A and log(r)^L are
        # smooth on its panels; the offset panels take what lies before
        mid = max(x0, 2.0 * r1, math.e if L != 0.0 else 0.0)
        if x0 <= r1:
            mid = max(mid, r1 + 1.0)
        v, e, n = _tail_gl(c, A, B, L, r1, mid, tol)
        if mid > x0:
            hv, he, hn = _piece_partial(piece, r1, x0, mid, tol)
            v, e, n = v + hv, e + he, n + hn
        return v, e, n
    if x0 <= r1:
        return _left_singular(c, A, B, L, r1, x1 - r1, tol)
    v, n = _offset_cells(c, A, B, L, r1, [x0 - r1], [x1 - r1])
    return float(v[0]), abs(float(v[0])) * _PANEL_RTOL, n


def _left_singular(c, A, B, L, r1, d, tol):
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

        return _gl_adaptive(fvec, 0.0, d ** (1.0 / m), tol, grading=2.0)

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
        rest, n = _offset_cells(c, A, B, L, r1, [eps], [d])
        v += float(rest[0])
    return v, abs(v) * _PANEL_RTOL, n


def _tail_gl(c, A, B, L, r1, x0, tol):
    """∫_{x0}^inf via r = e**s; integrand ~ e^{(A+B+1)s} s^L decays."""
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

        v1, e1, n1 = _gl_adaptive(fvec, s0, s_cut, tol)
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
    prev = None
    nev = 0
    while True:
        val, n = _gl_panels(fvec, s0, s_end, segments)
        nev += n
        if prev is not None and abs(val - prev) <= tol * abs(val):
            return val, abs(val - prev), nev
        if segments > 4096:
            return val, abs(val - prev) if prev is not None else INF, nev
        prev = val
        segments *= 2


# ---------------------------------------------------------------------------
# exponent tests and the exact power-log route
# ---------------------------------------------------------------------------


def left_integrable(model: WeightModel):
    """Convergence of ∫ near the domain's left end, from the adjacent exponent."""
    if not model.left_singular:
        return True
    e, _ = local_exponents(model, LEFT_R1)
    return e > -1.0


def tail_integrable(model: WeightModel):
    """Convergence of ∫ near infinity: power < -1, or == -1 with log < -1."""
    if math.isfinite(model.r2):
        return True
    e, l = local_exponents(model, INFINITY)
    return e < -1.0 or (e == -1.0 and l < -1.0)


def integrate_exact_powerlog(model: WeightModel, a=None, b=None, tol=1e-12):
    """Integral of a power-log model with exponent-certified verdicts.

    Convergence/divergence at the endpoints is decided analytically; the value
    comes from closed forms where elementary, else from the offset-coordinate
    panels, the singular start and the tail route of :func:`_piece_partial`.
    ``a``/``b`` default to the model's full domain.
    """
    a = model.lo_domain if a is None else a
    b = model.r2 if b is None else b
    if not (model.lo_domain <= a < b <= model.r2 or math.isclose(a, model.lo_domain)):
        raise ValueError(f"({a}, {b}) not inside the model domain")
    touches_left = model.left_singular and (
        a <= model.r1 or math.isclose(a, model.r1, rel_tol=1e-12)
    )
    if touches_left and not left_integrable(model):
        return IntegralResult(INF, INF, DIVERGES, 0)
    if not math.isfinite(b) and not tail_integrable(model):
        return IntegralResult(INF, INF, DIVERGES, 0)

    total = 0.0
    err = 0.0
    nev = 0
    for piece in model.pieces:
        lo, hi = max(piece.lo, a), min(piece.hi, b)
        if not lo < hi:
            continue
        x0 = model.r1 if (touches_left and lo <= model.r1) else lo
        v, e, n = _piece_partial(piece, model.r1, x0, hi, tol)
        total += v
        err += e
        nev += n
    return IntegralResult(total, err, CONVERGED, nev)


# ---------------------------------------------------------------------------
# cumulative one-sided integrals
# ---------------------------------------------------------------------------


def _piece_cells(piece, r1, a, b, tol):
    """∫ of one piece over each [a[k], b[k]] (radii), via the offset kernel.

    Cells touching the origin (a <= r1) or reaching infinity are rare and
    take the scalar :func:`_piece_partial` route.
    """
    odd = (a <= r1) | ~np.isfinite(b)
    cab = _merged_exponents(piece, r1)
    if not odd.any():
        return _offset_cells(*cab, r1, a - r1, b - r1)[0]
    out = np.empty(a.shape)
    reg = ~odd
    out[reg] = _offset_cells(*cab, r1, a[reg] - r1, b[reg] - r1)[0]
    for k in np.flatnonzero(odd):
        live = b[k] > max(a[k], r1)
        out[k] = _piece_partial(piece, r1, a[k], b[k], tol)[0] if live else 0.0
    return out


def _by_piece(model, r):
    """Sort ``r`` once; return the order, the sorted values and the
    (piece index, slice) runs that split them by piece."""
    order = np.argsort(r, kind="stable")
    q = r[order]
    idx = np.maximum(np.searchsorted(model._los, q, side="right") - 1, 0)
    cuts = np.concatenate([[0], np.flatnonzero(np.diff(idx)) + 1, [len(q)]])
    runs = [(int(idx[s]), slice(int(s), int(e)))
            for s, e in zip(cuts[:-1], cuts[1:]) if e > s]
    return order, q, runs


class LeftCumulative:
    """Φ(r) = ∫_{R1}^{r} of a power-log model; +inf everywhere if divergent.

    An array query is sorted once and grouped by piece.  Within a piece the
    first gap (from R1, or from the piece's left edge) is one
    :func:`_piece_partial` call and the gaps between consecutive sorted
    queries are cells of the offset-coordinate panel kernel, in
    ``t = r - R1``; a running sum turns them into Φ, which is scattered back
    into the caller's order.  A single query integrates directly.
    """

    def __init__(self, model: WeightModel, tol=1e-12):
        self.model = model
        self.tol = tol
        self.divergent = not left_integrable(model)
        prefix = [0.0]
        if not self.divergent:
            for piece in model.pieces[:-1]:
                x0 = model.r1 if piece.lo <= model.r1 else piece.lo
                v, _, _ = _piece_partial(piece, model.r1, x0, piece.hi, tol)
                prefix.append(prefix[-1] + v)
        self._prefix = prefix

    def _start(self, piece):
        return self.model.r1 if piece.lo <= self.model.r1 else piece.lo

    def __call__(self, r):
        scalar = np.isscalar(r)
        rs = np.atleast_1d(np.asarray(r, dtype=float))
        if self.divergent:
            out = np.full(rs.shape, INF)
            return float(out[0]) if scalar else out
        if rs.size == 1:
            rj = float(rs.flat[0])
            i = self.model.piece_index(rj)
            piece = self.model.pieces[i]
            x0 = self._start(piece)
            v = self._prefix[i]
            if rj > x0:
                v += _piece_partial(piece, self.model.r1, x0, rj, self.tol)[0]
            return v if scalar else np.full(rs.shape, v)
        flat = rs.ravel()
        order, q, runs = _by_piece(self.model, flat)
        vals = np.empty(q.shape)
        for i, sl in runs:
            piece = self.model.pieces[i]
            x0 = self._start(piece)
            qi = q[sl]
            k = int(np.searchsorted(qi, x0, side="right"))
            vals[sl][:k] = self._prefix[i]
            if k < len(qi):
                live = qi[k:]
                gaps = _piece_cells(piece, self.model.r1,
                                    np.concatenate([[x0], live[:-1]]), live, self.tol)
                vals[sl][k:] = self._prefix[i] + np.cumsum(gaps)
        out = np.empty(flat.shape)
        out[order] = vals
        return out.reshape(rs.shape)


class RightCumulative:
    """Ψ(r) = ∫_{r}^{R2} of a power-log model; +inf everywhere if divergent.

    The first piece's total is never formed from its left edge (which may be
    a divergent singularity); queries inside it integrate from r directly.
    Array queries mirror :class:`LeftCumulative`: within a piece the last
    gap, to the piece's right edge (to R2 = inf on a tail piece), is
    computed once, and a reversed running sum over the offset-kernel cells
    between consecutive sorted queries gives the rest.
    """

    def __init__(self, model: WeightModel, tol=1e-12):
        self.model = model
        self.tol = tol
        self.divergent = not tail_integrable(model)
        n = len(model.pieces)
        suffix = [0.0] * (n + 1)
        if not self.divergent:
            for i in range(n - 1, 0, -1):
                piece = model.pieces[i]
                v, _, _ = _piece_partial(piece, model.r1, piece.lo, piece.hi, tol)
                suffix[i] = suffix[i + 1] + v
            suffix[0] = math.nan  # unused: first-piece queries integrate from r
        self._suffix = suffix

    def __call__(self, r):
        scalar = np.isscalar(r)
        rs = np.atleast_1d(np.asarray(r, dtype=float))
        if self.divergent:
            out = np.full(rs.shape, INF)
            return float(out[0]) if scalar else out
        if rs.size == 1:
            rj = float(rs.flat[0])
            i = self.model.piece_index(rj)
            piece = self.model.pieces[i]
            v = self._suffix[i + 1]
            if rj < piece.hi:
                v += _piece_partial(piece, self.model.r1, rj, piece.hi, self.tol)[0]
            return v if scalar else np.full(rs.shape, v)
        flat = rs.ravel()
        order, q, runs = _by_piece(self.model, flat)
        vals = np.empty(q.shape)
        for i, sl in runs:
            piece = self.model.pieces[i]
            qi = q[sl]
            k = int(np.searchsorted(qi, piece.hi, side="left"))
            vals[sl][k:] = self._suffix[i + 1]
            if k > 0:
                live = qi[:k]
                gaps = _piece_cells(piece, self.model.r1, live,
                                    np.concatenate([live[1:], [piece.hi]]), self.tol)
                vals[sl][:k] = self._suffix[i + 1] + np.cumsum(gaps[::-1])[::-1]
        out = np.empty(flat.shape)
        out[order] = vals
        return out.reshape(rs.shape)


def interval_integrals(model: WeightModel, edges, tol=1e-12):
    """∫ of the model over each [edges[i], edges[i+1]], vectorized.

    Cells crossing piece junctions are split there and summed.  Every
    sub-cell goes through the offset-coordinate panel kernel except one that
    starts at R1, which takes the singular :func:`_piece_partial` route.
    """
    edges = np.asarray(edges, dtype=float)
    n = len(edges) - 1
    if n < 1:
        return np.zeros(0)
    cuts = np.array([b for b in model.breakpoints() if edges[0] < b < edges[-1]])
    cuts = cuts[~np.isin(cuts, edges)]
    lo = np.concatenate([edges[:-1], cuts])
    cell = np.concatenate([np.arange(n), np.searchsorted(edges, cuts, side="right") - 1])
    order = np.lexsort((lo, cell))
    lo, cell = lo[order], cell[order]
    hi = np.empty(lo.shape)
    hi[:-1] = lo[1:]
    last = np.append(cell[1:] != cell[:-1], True)
    hi[last] = edges[cell[last] + 1]
    idx = np.maximum(np.searchsorted(model._los, lo, side="right") - 1, 0)
    vals = np.empty(lo.shape)
    for i in np.unique(idx):
        m = idx == i
        vals[m] = _piece_cells(model.pieces[i], model.r1, lo[m], hi[m], tol)
    return np.bincount(cell, weights=vals, minlength=n)
