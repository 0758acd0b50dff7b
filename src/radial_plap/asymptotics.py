"""Boundary envelopes and two-sided asymptotic verification.

Near each boundary the eigenfunction is sandwiched between constant multiples
of the envelope ∫_{R1}^{r} rho^{1-p'} (left) resp. ∫_{r}^{R2} rho^{1-p'}
(right), and |u'| between constant multiples of rho^{1-p'} itself, which is
the same statement as the flux g = rho |u'|^{p-2} u' staying between positive
constants.  This module measures the achieved sandwich constants on a window,
fits the boundary decay exponent by log-log regression, and compares with the
exponent the envelope itself dictates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .weights import INFINITY, LEFT_R1, ProblemSpec, magnitude, near_integral, right_end
from .solver import Eigenpair

INF = math.inf

LEFT = "left"
RIGHT = "right"

#: envelope level, as a share of max u, at the inner edge of a finite-end window
_WINDOW_LEVEL = 1e-4
#: largest passing spread ratio_max / ratio_min of u / envelope on a window
_RATIO_CAP = 10.0
#: largest passing gap between the fitted and the theoretical exponent
_EXPONENT_TOL = 0.05


class WindowError(ValueError):
    pass


@dataclass
class AsymptoticVerdict:
    boundary: str
    window: tuple
    ratio_min: float
    ratio_max: float
    fitted_exponent: float
    theoretical_exponent: float | None
    passed: bool
    extras: dict = field(default_factory=dict)
    #: the window's (r, u, envelope) samples; not part of :meth:`to_dict`
    window_data: tuple = field(default=(), repr=False, compare=False)

    def to_dict(self):
        return {
            "boundary": self.boundary,
            "window": list(self.window),
            "ratio_min": self.ratio_min,
            "ratio_max": self.ratio_max,
            "fitted_exponent": self.fitted_exponent,
            "theoretical_exponent": self.theoretical_exponent,
            "pass": self.passed,
            **{k: v for k, v in sorted(self.extras.items())},
        }


def envelope_left(ps: ProblemSpec, r):
    """∫_{R1}^{r} rho^{1-p'}; errors if that integral diverges."""
    if ps.phi_rho_conj.divergent:
        raise ValueError("rho^(1-p') not integrable near R1: left envelope undefined")
    return ps.phi_rho_conj(r)


def envelope_right(ps: ProblemSpec, r):
    """∫_{r}^{R2} rho^{1-p'}; errors if that integral diverges."""
    if ps.psi_rho_conj.divergent:
        raise ValueError("rho^(1-p') not integrable near R2: right envelope undefined")
    return ps.psi_rho_conj(r)


def theoretical_exponent(ps: ProblemSpec, boundary):
    """Envelope's own decay power: (r-R1)-power a+1 on the left, r-power e+1
    at infinity, 1 at a finite right end; None at log-critical exponents."""
    end = LEFT_R1 if boundary == LEFT else right_end(ps.R2)
    m = near_integral(magnitude(ps.rho_conj_model, end), end)
    if m is None or m[0] == 0.0:
        return None
    return -m[0] if end == INFINITY else m[0]


def fit_exponent(r, u, boundary=LEFT, anchor=None):
    """Log-log least-squares slope of u against the boundary distance.

    Left: x = log(r - anchor) with anchor = R1.  Right: x = log(anchor - r)
    for a finite anchor radius, or x = log r when the boundary is infinity
    (anchor None).  Returns (exponent, rms_residual).  All samples must be
    positive and at least 8 are required.
    """
    r = np.asarray(r, dtype=float)
    u = np.asarray(u, dtype=float)
    if len(r) < 8:
        raise WindowError(f"need at least 8 samples, got {len(r)}")
    if np.any(u <= 0.0):
        raise ValueError("nonpositive samples cannot be fitted in log-log")
    if boundary == LEFT:
        anchor = 0.0 if anchor is None else anchor
        x = np.log(r - anchor)
    elif anchor is not None and math.isfinite(anchor):
        x = np.log(anchor - r)
    else:
        x = np.log(r)
    y = np.log(u)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return float(slope), float(np.sqrt(np.mean(resid**2)))


def _solve_envelope_level(fun, lo, hi, target, increasing):
    """Monotone bisection for fun(r) = target on (lo, hi)."""
    for _ in range(200):
        mid = math.sqrt(lo * hi) if lo > 0 else 0.5 * (lo + hi)
        val = fun(mid)
        if (val < target) == increasing:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def default_window(ps: ProblemSpec, eig: Eigenpair, boundary):
    """Concrete verification window.

    At a finite end: (eta, 10 eta) away from it, with the envelope at
    distance eta equal to ``_WINDOW_LEVEL`` * max u.  Right at infinity:
    one envelope decade between the radii where envelope_right equals 1e-2
    and 1e-3 of max u (the literal 1e-4 rule would need truncation radii far
    beyond what polynomial-tail contamination allows; the achieved window is
    reported either way).
    """
    umax = float(np.max(eig.u))
    mesh = eig.mesh
    if boundary == LEFT or math.isfinite(ps.R2):
        # side: +1 when the window lies right of its end, -1 left of it
        end, side, env, eta_lo = (
            (ps.R1, 1.0, ps.phi_rho_conj, mesh.delta_left) if boundary == LEFT
            else (ps.R2, -1.0, ps.psi_rho_conj, mesh.delta_right))
        eta = _solve_envelope_level(
            lambda d: env(end + side * d), eta_lo, 0.25 * (mesh.r_end - ps.R1),
            _WINDOW_LEVEL * umax, increasing=True,
        )
        return tuple(sorted((end + side * eta, end + side * 10.0 * eta)))
    psi = ps.psi_rho_conj
    r_in = _solve_envelope_level(
        psi, ps.R1 + 0.5 * (mesh.r_end - ps.R1) * 1e-6, mesh.r_end,
        1e-2 * umax, increasing=False,
    )
    r_out = _solve_envelope_level(
        psi, r_in, mesh.r_end, 1e-3 * umax, increasing=False,
    )
    if r_out > mesh.r_end / 6.0:
        # the bisection above stops at r_end: name the radius past the mesh
        hi = mesh.r_end
        while psi(hi) >= 1e-3 * umax:
            hi *= 2.0
        if hi > mesh.r_end:
            r_out = _solve_envelope_level(psi, 0.5 * hi, hi, 1e-3 * umax,
                                          increasing=False)
        raise WindowError(
            f"truncation radius {mesh.r_end} too small for the default right "
            f"window (needs about {6.0 * r_out:.0f}); solve with a larger r_max"
        )
    return (r_in, r_out)


def sandwich_check(eig: Eigenpair, ps: ProblemSpec, boundary,
                   window=None) -> AsymptoticVerdict:
    """Measure C1 <= u/envelope <= C2 and the flux bounds on a window.

    ``passed`` is ratio_max/ratio_min <= ``_RATIO_CAP`` AND, when an exponent
    is theoretically forced, |fitted - theoretical| <= ``_EXPONENT_TOL``.  The
    derivative sandwich (flux between positive constants, equivalently
    |u'| between multiples of rho^{1-p'}) is reported in ``extras``.
    A zero of u inside the window contradicts nonoscillation and errors.
    """
    if window is None:
        window = default_window(ps, eig, boundary)
    r_in, r_out = window
    mask = (eig.mesh.nodes >= r_in) & (eig.mesh.nodes <= r_out)
    rs = eig.mesh.nodes[mask]
    us = eig.u[mask]
    gs = eig.flux[mask]
    if len(rs) < 8:
        raise WindowError(
            f"window ({r_in:.6g}, {r_out:.6g}) holds {len(rs)} mesh nodes; need >= 8"
        )
    if np.any(us <= 0.0):
        raise ValueError(
            "u has a zero inside the verification window (contradicts "
            "nonoscillation; window too wide or problem invalid)"
        )
    env = envelope_left(ps, rs) if boundary == LEFT else envelope_right(ps, rs)
    ratio = us / env
    ratio_min, ratio_max = float(np.min(ratio)), float(np.max(ratio))
    # drop the 2 samples nearest the analyzed boundary: integrator startup
    fit = slice(2, None) if boundary == LEFT else slice(None, -2)
    anchor = ps.R1 if boundary == LEFT else ps.R2 if math.isfinite(ps.R2) else None
    fitted, resid = fit_exponent(rs[fit], us[fit], boundary=boundary, anchor=anchor)
    theo = theoretical_exponent(ps, boundary)
    ok_ratio = ratio_max / ratio_min <= _RATIO_CAP
    ok_exp = True if theo is None else abs(fitted - theo) <= _EXPONENT_TOL
    gabs = np.abs(gs)
    extras = {
        "flux_min": float(np.min(gabs)),
        "flux_max": float(np.max(gabs)),
        "fit_residual": resid,
        "samples": int(len(rs)),
    }
    return AsymptoticVerdict(
        boundary=boundary,
        window=(float(r_in), float(r_out)),
        ratio_min=ratio_min,
        ratio_max=ratio_max,
        fitted_exponent=fitted,
        theoretical_exponent=theo,
        passed=bool(ok_ratio and ok_exp),
        extras=extras,
        window_data=(rs, us, env),
    )
