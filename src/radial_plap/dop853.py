"""DOP853 driver for the two-state flux system of the shooting solver.

The 8(5,3) explicit Runge-Kutta pair of Dormand and Prince with its
seventh-order dense output (Hairer, Norsett and Wanner, *Solving ODEs I*,
Sec. II.5 and II.6).  :func:`solve_ivp` evaluates scipy's
``solve_ivp(method="DOP853")`` expressions in scipy's order, with scipy's
tableau, so its steps, states, RHS count, event root and dense output are
bit-identical to scipy's; what it leaves out is scipy's per-stage wrapping
(array conversion, function wrappers, the generic event scan).

Every stage sum stays a numpy ``dot``, as in scipy, because no Python-float
expression reproduces it: BLAS fuses the multiply-adds, so the dot of a
2-term sum equals ``fma(k1, a1, k0 * a0)`` in 3,000 of 3,000 random cases,
while ``k0 * a0 + k1 * a1`` differs in about a third of them.  What the step
loop trims is the numpy work around those calls.

Nothing here imports scipy.  The tableau is vendored from scipy, under its
BSD-3 license, in :mod:`radial_plap._dop853_tableau`, and :func:`brentq`,
which finds the event root here and lam_1 in :mod:`radial_plap.solver`, is a
port of scipy's ``brentq.c``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _dop853_tableau as _dop

_NS = _dop.N_STAGES
_A = _dop.A[:_NS, :_NS]
_A_ROWS = [_A[s, :s] for s in range(_NS)]
_C = _dop.C[:_NS].tolist()
_A_EXTRA = [(s, _dop.A[s, :s], float(_dop.C[s]))
            for s in range(_NS + 1, _dop.N_STAGES_EXTENDED)]
_EPS = sys.float_info.epsilon
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERR_EXP = -1 / 8  # -1 / (error estimator order + 1)


def brentq(f, a, b, xtol=2e-12, rtol=4 * _EPS):
    """Root of ``f`` in [a, b] by Brent's method (Brent 1973, *Algorithms for
    Minimization Without Derivatives*, ch. 4).

    A port of scipy's ``brentq.c``, operation for operation on Python floats,
    so its iterates and root are bit-identical to ``scipy.optimize.brentq``'s,
    with scipy's defaults.  As scipy, it raises ValueError for ``f(a)`` and
    ``f(b)`` of one sign, ``xtol <= 0``, ``rtol < 4 eps`` or a NaN value of
    ``f``, and RuntimeError after scipy's default of 100 iterations.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4 * _EPS:
        raise ValueError(f"rtol too small ({rtol:g} < {4 * _EPS:g})")

    def fx(x):
        y = float(f(x))
        if math.isnan(y):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return y

    xpre, xcur = float(a), float(b)
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # C compares signbits; f is neither 0 nor nan here, so < 0 is the same
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C gets inf or nan here, which fails the test below
                stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise RuntimeError("Failed to converge after 100 iterations, "
                       f"value is {xcur}")


@dataclass
class IvpResult:
    """The fields of scipy's ``solve_ivp`` result that :func:`solve_ivp` fills."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    status: int
    message: str
    t_events: list
    y_events: list
    sol: DenseSolution | None

    @property
    def success(self):
        return self.status >= 0


class DenseSolution:
    """DOP853's dense output over the accepted steps ``ts``, evaluated exactly
    as scipy's ``OdeSolution`` of ``Dop853DenseOutput`` pieces."""

    def __init__(self, ts, pieces):
        self.ts = np.asarray(ts)
        t_old, h, y_old, F = zip(*pieces)
        self.t_old = np.array(t_old)
        self.h = np.array(h)
        self.y_old = np.array(y_old)
        self.F = np.array(F)

    def __call__(self, x):
        """State at the points ``x``, shape (2, len(x))."""
        x = np.asarray(x, dtype=float)
        # a point on a step boundary takes the earlier step, as in scipy
        seg = np.searchsorted(self.ts, x, side="left") - 1
        seg = np.clip(seg, 0, len(self.h) - 1)
        s = ((x - self.t_old[seg]) / self.h[seg])[:, None]
        F = self.F[seg]
        y = np.zeros((len(x), 2))
        for i in range(F.shape[1]):
            y += F[:, -1 - i]
            y *= s if i % 2 == 0 else 1 - s
        y += self.y_old[seg]
        return y.T


def _finite(f):
    if not (math.isfinite(f[0]) and math.isfinite(f[1])):
        raise FloatingPointError(f"non-finite derivative {f}")
    return f


def _norm(x):
    # np.linalg.norm of a float vector, without its dispatch
    return math.sqrt(x.dot(x))


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """scipy's ``select_initial_step`` for an order-7 error estimate."""
    interval_length = t_bound - t0
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale) / 2**0.5
    d1 = _norm(f0 / scale) / 2**0.5
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = np.array(_finite(fun(t0 + h0, tuple(y1.tolist()))))
    d2 = _norm((f1 - f0) / scale) / 2**0.5 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _dense_piece(fun, K, t_old, h, y_old, y, f):
    """The DOP853 interpolant of the step just taken (three more stages)."""
    yu, yg = y_old
    for s, a, c in _A_EXTRA:
        du, dg = K[:s].T.dot(a).tolist()
        K[s] = _finite(fun(t_old + c * h, (yu + du * h, yg + dg * h)))
    (fu_old, fg_old), (fu, fg) = K[0].tolist(), f
    du, dg = y[0] - yu, y[1] - yg
    F = np.empty((_dop.INTERPOLATOR_POWER, 2))
    F[0] = du, dg
    F[1] = h * fu_old - du, h * fg_old - dg
    F[2] = 2 * du - h * (fu + fu_old), 2 * dg - h * (fg + fg_old)
    F[3:] = h * np.dot(_dop.D, K)
    return (t_old, h, y_old, F)


def solve_ivp(fun, t_span, y0, rtol, atol, dense_output, events) -> IvpResult:
    """Integrate the two-state system ``y' = fun(t, y)`` forward with DOP853
    until ``t_span[1]`` or the first downward zero crossing of ``events``.

    A lean driver for scipy's ``solve_ivp(method="DOP853")`` with a terminal,
    direction -1 event: it evaluates scipy's expressions in scipy's order
    (tableau, stage sums, initial step, error norm, step-size rule, event
    root and dense interpolant), so ``t``, ``y``, ``nfev``, the event and the
    dense output are bit-identical to scipy's.  It drops scipy's wrapping:
    ``fun`` takes the state as a pair of floats and returns a pair, the
    event is one sign test per step, and the interpolant is built only on
    the event step unless ``dense_output`` asks for it on every step.
    ``atol`` is a pair.  A non-finite derivative raises FloatingPointError.

    Each stage takes its sum from BLAS (see the module notes) and does the
    rest on Python floats: ``dot(row).tolist()`` times ``h`` is the IEEE
    product numpy's ``* h`` forms, and the stages' bound ``dot``, rows and
    nodes, like the error-norm ``scale`` buffer, are built once per call.
    """
    t, t_end = map(float, t_span)
    if not t_end > t:
        raise ValueError("t_span must increase")
    if rtol < 100 * _EPS:
        raise ValueError(f"rtol must be at least {100 * _EPS}")
    isfinite = math.isfinite
    atol = np.array(atol, dtype=float)
    atol_u, atol_g = atol.tolist()
    yu, yg = map(float, y0)
    fu, fg = _finite(fun(t, (yu, yg)))
    h_abs = _initial_step(fun, t, np.array([yu, yg]), t_end, np.array([fu, fg]),
                          rtol, atol)
    nfev = 2
    K = np.empty((_dop.N_STAGES_EXTENDED, 2))
    # per stage: its row of K, the bound dot of the stages before it, its
    # tableau row and its node; the last is the new state, with weights B
    stages = [(K[s], K[:s].T.dot, _A_ROWS[s], _C[s]) for s in range(1, _NS)]
    stages.append((K[_NS], K[:_NS].T.dot, _dop.B, 1.0))
    k_first, dot_err = K[0], K[:_NS + 1].T.dot
    scale = np.empty(2)
    ts, us, gs, pieces = [t], [yu], [yg], []
    ev_old = events(t, (yu, yg))
    t_events, y_events = [np.array([])], [np.array([])]
    status = None
    message = "The solver successfully reached the end of the integration interval."
    while status is None:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                message = "Required step size is less than spacing between numbers."
                break
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            k_first[0] = fu
            k_first[1] = fg
            for k, dot, row, c in stages:
                du, dg = dot(row).tolist()
                nu, ng = yu + du * h, yg + dg * h
                fnu, fng = fun(t + c * h, (nu, ng))
                if not (isfinite(fnu) and isfinite(fng)):
                    _finite((fnu, fng))
                k[0] = fnu
                k[1] = fng
            nfev += _NS
            scale[0] = atol_u + max(abs(yu), abs(nu)) * rtol
            scale[1] = atol_g + max(abs(yg), abs(ng)) * rtol
            # scipy's norm(x) ** 2, with norm(x) = sqrt(x.dot(x))
            err5 = dot_err(_dop.E5) / scale
            err5_2 = math.sqrt(err5.dot(err5)) ** 2
            err3 = dot_err(_dop.E3) / scale
            err3_2 = math.sqrt(err3.dot(err3)) ** 2
            if err5_2 == 0 and err3_2 == 0:
                error_norm = 0.0
            else:
                error_norm = h * err5_2 / math.sqrt((err5_2 + 0.01 * err3_2) * 2)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERR_EXP)
                if rejected:
                    factor = min(1, factor)
                h_abs = h * factor
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * error_norm ** _ERR_EXP)
            rejected = True
        if status is not None:
            break
        t_old, y_old = t, (yu, yg)
        t, yu, yg, fu, fg = t_new, nu, ng, fnu, fng
        if t == t_end:
            status = 0
        piece = None
        if dense_output:
            piece = _dense_piece(fun, K, t_old, h, y_old, (yu, yg), (fu, fg))
            nfev += 3
            pieces.append(piece)
        ev_new = events(t, (yu, yg))
        if ev_old >= 0 and ev_new <= 0:
            if piece is None:
                piece = _dense_piece(fun, K, t_old, h, y_old, (yu, yg), (fu, fg))
                nfev += 3
            step = DenseSolution((t_old, t), [piece])
            # scipy's event root: brentq on the step's interpolant
            root = brentq(lambda x: events(x, step([x])[:, 0]), t_old, t,
                          xtol=4 * _EPS, rtol=4 * _EPS)
            y_root = step([root])[:, 0]
            t_events, y_events = [np.array([root])], [y_root[None, :]]
            status, message = 1, "A termination event occurred."
            t, (yu, yg) = root, y_root.tolist()
        ev_old = ev_new
        if dense_output and len(ts) > 1 and ts[-1] == t:
            pieces.pop()  # scipy drops an event step that ends on the last node
        else:
            ts.append(t)
            us.append(yu)
            gs.append(yg)
    sol = DenseSolution(ts, pieces) if dense_output else None
    return IvpResult(np.array(ts), np.array([us, gs]), nfev, status, message,
                     t_events, y_events, sol)
