"""DOP853 driver for the two-state flux system of the shooting solver.

The 8(5,3) explicit Runge-Kutta pair of Dormand and Prince with its
seventh-order dense output (Hairer, Norsett and Wanner, *Solving ODEs I*,
Sec. II.5 and II.6).  :func:`solve_ivp` evaluates scipy's
``solve_ivp(method="DOP853")`` expressions in scipy's order, with scipy's
tableau, so its steps, states, RHS count, event root and dense output are
bit-identical to scipy's; what it leaves out is scipy's per-stage wrapping
(array conversion, function wrappers, the generic event scan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.optimize import brentq

_NS = _dop.N_STAGES
_A = _dop.A[:_NS, :_NS]
_A_ROWS = [_A[s, :s] for s in range(_NS)]
_C = _dop.C[:_NS].tolist()
_A_EXTRA = [(s, _dop.A[s, :s], float(_dop.C[s]))
            for s in range(_NS + 1, _dop.N_STAGES_EXTENDED)]
_EPS = np.finfo(float).eps
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERR_EXP = -1 / 8  # -1 / (error estimator order + 1)


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
        du, dg = (np.dot(K[:s].T, a) * h).tolist()
        K[s] = _finite(fun(t_old + c * h, (yu + du, yg + dg)))
    y_old, y, f = np.array(y_old), np.array(y), np.array(f)
    F = np.empty((_dop.INTERPOLATOR_POWER, 2))
    f_old = K[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
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
    """
    t, t_end = map(float, t_span)
    if not t_end > t:
        raise ValueError("t_span must increase")
    if rtol < 100 * _EPS:
        raise ValueError(f"rtol must be at least {100 * _EPS}")
    isfinite = math.isfinite
    atol = np.array(atol, dtype=float)
    atol_u, atol_g = atol
    yu, yg = map(float, y0)
    fu, fg = _finite(fun(t, (yu, yg)))
    h_abs = _initial_step(fun, t, np.array([yu, yg]), t_end, np.array([fu, fg]),
                          rtol, atol)
    nfev = 2
    K = np.empty((_dop.N_STAGES_EXTENDED, 2))
    KT = [K[:s].T for s in range(_NS + 2)]
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
            K[0] = (fu, fg)
            for s in range(1, _NS):
                du, dg = (np.dot(KT[s], _A_ROWS[s]) * h).tolist()
                ku, kg = fun(t + _C[s] * h, (yu + du, yg + dg))
                if not (isfinite(ku) and isfinite(kg)):
                    _finite((ku, kg))
                K[s] = (ku, kg)
            du, dg = (h * np.dot(KT[_NS], _dop.B)).tolist()
            nu, ng = yu + du, yg + dg
            fnu, fng = _finite(fun(t + h, (nu, ng)))
            K[_NS] = (fnu, fng)
            nfev += _NS
            scale = np.array([atol_u + max(abs(yu), abs(nu)) * rtol,
                              atol_g + max(abs(yg), abs(ng)) * rtol])
            err5_2 = _norm(np.dot(KT[_NS + 1], _dop.E5) / scale) ** 2
            err3_2 = _norm(np.dot(KT[_NS + 1], _dop.E3) / scale) ** 2
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
