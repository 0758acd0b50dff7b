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
    """The fields of scipy's ``solve_ivp`` result that :func:`solve_ivp` fills,
    with ``dense`` in place of scipy's ``sol``."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    status: int
    message: str
    t_events: list
    y_events: list
    dense: DenseNodes | None

    @property
    def success(self):
        return self.status >= 0


def _interpolate(x, t_old, h, y_old, F):
    """DOP853's dense output at the points ``x``, each with its step's
    ``t_old``, ``h``, ``y_old`` and ``F`` (one row per point), evaluated as
    scipy's ``Dop853DenseOutput``; shape (2, len(x))."""
    s = ((x - t_old) / h)[:, None]
    y = np.zeros((len(x), 2))
    for i in range(F.shape[1]):
        y += F[:, -1 - i]
        y *= s if i % 2 == 0 else 1 - s
    y += y_old
    return y.T


class DenseNodes:
    """DOP853's dense output at the nodes ``x``, from what :func:`solve_ivp`
    kept of the accepted steps that hold them: ``(t_old, h, y_old, y, k)``
    per step, ``k`` the bytes of the step's first 13 stages, and the number
    of nodes the step holds.  A node on a step boundary belongs to the
    earlier step, as in scipy's ``OdeSolution``."""

    def __init__(self, fun, x, steps):
        self.fun = fun
        self.x = np.array(x)
        self.steps = steps

    def __call__(self):
        """State at the nodes, shape (2, len(x)).  Builds each holding step's
        interpolant, with its three extra stages: three evaluations of
        ``fun`` a step, outside the solve's ``nfev``."""
        if not self.steps:
            return np.empty((2, 0))
        t_old, h, y_old, y, k, counts = zip(*self.steps)
        stages = np.frombuffer(b"".join(k)).reshape(len(k), _NS + 1, 2)
        K = np.empty((_dop.N_STAGES_EXTENDED, 2))
        F = np.empty((len(k), _dop.INTERPOLATOR_POWER, 2))
        for i, (t0, hh, y0, y1, ks) in enumerate(zip(t_old, h, y_old, y, stages)):
            K[:_NS + 1] = ks
            F[i] = _dense_piece(self.fun, K, t0, hh, y0, y1, ks[_NS].tolist())
        seg = np.repeat(np.arange(len(k)), counts)
        return _interpolate(self.x, np.array(t_old)[seg], np.array(h)[seg],
                            np.array(y_old)[seg], F[seg])


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
    """The ``F`` of the DOP853 interpolant of the step from ``t_old`` whose
    first 13 stages are in ``K`` (three more stages go into ``K[13:]``)."""
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
    return F


def solve_ivp(fun, t_span, y0, rtol, atol, events, nodes=None) -> IvpResult:
    """Integrate the two-state system ``y' = fun(t, y)`` forward with DOP853
    until ``t_span[1]`` or the first downward zero crossing of ``events``.

    A lean driver for scipy's ``solve_ivp(method="DOP853")`` with a terminal,
    direction -1 event: it evaluates scipy's expressions in scipy's order
    (tableau, stage sums, initial step, error norm, step-size rule, event
    root and dense interpolant), so ``t``, ``y``, ``nfev``, the event and the
    dense output are bit-identical to scipy's.  It drops scipy's wrapping:
    ``fun`` takes the state as a pair of floats and returns a pair, the
    event is one sign test per step, and the interpolant is built only on
    the event step.  ``atol`` is a pair.  A non-finite derivative raises
    FloatingPointError.

    ``nodes``, increasing points of ``t_span``, asks for the dense output
    there: each accepted step that holds a node up to the end (or the event
    root) keeps a copy of its first 13 stages, and ``dense`` builds those
    steps' interpolants only when called, so a solve whose dense output
    goes unused pays no RHS evaluation for it.

    Each stage takes its sum from BLAS (see the module notes) into one
    preallocated pair, read on Python floats through a memoryview, and
    writes its derivative through a flat memoryview of ``K``; the stages'
    bound ``dot``, rows and nodes, like the error-norm ``scale`` buffer, are
    built once per call.
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
    kv = memoryview(K.reshape(-1))
    sums = np.empty(2)
    sv = memoryview(sums)
    # per stage: its offset in kv, the bound dot of the stages before it,
    # its tableau row and its node; the last is the new state, with weights B
    stages = [(2 * s, K[:s].T.dot, _A_ROWS[s], _C[s]) for s in range(1, _NS)]
    stages.append((2 * _NS, K[:_NS].T.dot, _dop.B, 1.0))
    dot_err = K[:_NS + 1].T.dot
    k_kept = kv[:2 * (_NS + 1)]
    scale = np.empty(2)
    ts, us, gs = [t], [yu], [yg]
    nodes = None if nodes is None else [float(x) for x in nodes]
    n_nodes = 0 if nodes is None else len(nodes)
    j, kept = 0, []
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
            kv[0] = fu
            kv[1] = fg
            for i, dot, row, c in stages:
                dot(row, sums)
                nu, ng = yu + sv[0] * h, yg + sv[1] * h
                fnu, fng = fun(t + c * h, (nu, ng))
                if not (isfinite(fnu) and isfinite(fng)):
                    _finite((fnu, fng))
                kv[i] = fnu
                kv[i + 1] = fng
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
        ev_new = events(t, (yu, yg))
        if ev_old >= 0 and ev_new <= 0:
            F = _dense_piece(fun, K, t_old, h, y_old, (yu, yg), (fu, fg))[None]
            nfev += 3

            def at(x):
                return _interpolate(np.array([x]), t_old, h, y_old, F)[:, 0]

            # scipy's event root: brentq on the step's interpolant
            root = brentq(lambda x: events(x, at(x)), t_old, t,
                          xtol=4 * _EPS, rtol=4 * _EPS)
            y_root = at(root)
            t_events, y_events = [np.array([root])], [y_root[None, :]]
            status, message = 1, "A termination event occurred."
            t, (yu, yg) = root, y_root.tolist()
        ev_old = ev_new
        if j < n_nodes and nodes[j] <= t:
            j0 = j
            while j < n_nodes and nodes[j] <= t:
                j += 1
            kept.append((t_old, h, y_old, (nu, ng), bytes(k_kept), j - j0))
        ts.append(t)
        us.append(yu)
        gs.append(yg)
    dense = None if nodes is None else DenseNodes(fun, nodes[:j], kept)
    return IvpResult(np.array(ts), np.array([us, gs]), nfev, status, message,
                     t_events, y_events, dense)
