"""Principal eigenpair of the radial Dirichlet problem by shooting.

The ODE -(rho |u'|^{p-2} u')' = lam sigma |u|^{p-2} u is integrated as a
first-order system in the state (u, g) with the *flux* g = rho |u'|^{p-2} u':

    u' = sign(g) (|g| / rho)^{1/(p-1)},      g' = -lam sigma |u|^{p-2} u.

The flux stays bounded and slowly varying at degenerate or singular weights
where u' itself blows up or vanishes (u' ~ rho^{1-p'} near the boundary), so
the system is smooth away from the endpoints.  Shooting starts on the known
boundary asymptote: at r0 = R1 + delta_left the exact solution satisfies
u ~ g^{1/(p-1)} * ∫_{R1}^{r0} rho^{1-p'}, so the initial data u(r0) =
∫_{R1}^{r0} rho^{1-p'}, g(r0) = 1 removes the singular-endpoint error.

Each smooth segment is integrated in x = log(r - R1) by the package's own
DOP853 driver (:func:`radial_plap.dop853.solve_ivp`), bit-identical to
scipy's ``solve_ivp(method="DOP853")`` without its per-stage wrapping; its
tableau is vendored from scipy (BSD-3).  The root in lam is found by
:func:`radial_plap.dop853.brentq`, a port of scipy's ``brentq.c`` with
bit-identical iterates, so no scipy module is imported at run time.

lam_1 is located by root-finding on a continuous shooting margin (terminal
value of u while no interior zero exists, minus the distance of the first
zero from the right endpoint once one appears); Sturm ordering makes the
margin monotone, so the root is the principal eigenvalue.  Exterior domains
(R2 = inf) are handled by a Dirichlet truncation ladder R_max = R1 * 2^k,
whose values decrease monotonically to lam_1 by domain inclusion.

Every root, a finite annulus or a ladder rung, builds its mesh first
(:func:`make_mesh`), and the mesh alone fixes the root's set-up
(:class:`_Shooting`): the start R1 + ``delta_left``, the end, the segments
between the weight junctions and the nodes where each shoot keeps its dense
output.  Each lam is integrated once, by :func:`shoot`, and the root holds
the latest shoot on each side of lam_1; the eigenfunction comes from the
one at brentq's lam (for a ladder, the last rung's).  Only a nudge shoots
afresh: when that trace is not positive, lam steps down by 8 tol on the
same set-up, at most eight times before SolverError (see
:func:`_eigenpair_from_shoot`, which also shoots brentq's lam again in the
unlikely case that its shoot was not held).

Independent cross-check: the discrete Rayleigh quotient's principal
eigenpair (:func:`rayleigh_minimize`), found by inverse power iteration,
whose load-to-response ratios enclose the discrete eigenvalue from both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature as quad
from .dop853 import brentq, solve_ivp
from .weights import LEFT_R1, ProblemSpec, integrable


class SolverError(RuntimeError):
    pass


_RTOL = 1e-11  # relative tolerance of every shoot
#: top rung of the default truncation ladder, as a multiple of R1
LADDER_TOP = 2.0**7


@dataclass
class Mesh:
    """Graded output mesh on (R1, r_end); nodes accumulate geometrically at
    both ends down to offsets delta_left / delta_right."""

    nodes: np.ndarray
    r1: float
    r_end: float
    delta_left: float
    delta_right: float

    def __post_init__(self):
        d = np.diff(self.nodes)
        if np.any(d <= 0):
            raise SolverError("mesh nodes must be strictly increasing")

    @property
    def n(self):
        return len(self.nodes)


#: share of the span each geometric boundary layer of the mesh reaches out to
_LAYER_FRAC = 0.02


def make_mesh(ps: ProblemSpec, n_core=1200, per_decade=12) -> Mesh:
    """Graded mesh on a finite (R1, R2): narrow geometric boundary layers
    plus a dense core; SolverError on an exterior problem.

    The problem fixes the offsets: ``delta_left`` where the left envelope is
    1e-6 of its midpoint value, ``delta_right`` 1e-9 of the span.  The layers
    run from them out to ``_LAYER_FRAC`` of the span, ``per_decade`` nodes
    per decade of boundary distance, leaving the core (``n_core`` nodes,
    log-spaced past a decade in r, else uniform) the eigenfunction's bulk.
    The weight junctions are nodes, so no cell straddles a jump.
    """
    if not math.isfinite(ps.R2):
        raise SolverError("a mesh needs a finite R2; truncate the exterior problem first")
    span = ps.R2 - ps.R1
    phi = ps.phi_rho_conj
    delta_left, _ = quad.level_bracket(
        lambda d: phi(ps.R1 + d), 1e-6 * phi(0.5 * (ps.R1 + ps.R2)),
        1e-13 * max(1.0, ps.R1), 0.25 * span, rel=1e-4)
    delta_right = 1e-9 * span
    layer_l = max(span * _LAYER_FRAC, 1e3 * delta_left)
    layer_r = max(span * _LAYER_FRAC, 1e3 * delta_right)
    k_left = max(2, int(math.ceil(per_decade * math.log10(layer_l / delta_left))))
    d_left = delta_left * (layer_l / delta_left) ** (np.arange(k_left + 1) / k_left)
    k_right = max(2, int(math.ceil(per_decade * math.log10(layer_r / delta_right))))
    d_right = delta_right * (layer_r / delta_right) ** (np.arange(k_right + 1) / k_right)
    left_nodes = ps.R1 + d_left
    right_nodes = ps.R2 - d_right
    a, b = ps.R1 + layer_l, ps.R2 - layer_r
    if (ps.R1 + span) / ps.R1 > 10.0:
        core = np.geomspace(a, b, n_core)
    else:
        core = np.linspace(a, b, n_core)
    nodes = np.unique(np.concatenate([left_nodes, core, right_nodes, ps.junctions]))
    nodes = nodes[(nodes >= ps.R1 + delta_left) & (nodes <= ps.R2 - delta_right)]
    keep = np.concatenate([[True], np.diff(nodes) > 1e-15 * np.maximum(1.0, nodes[1:])])
    return Mesh(nodes[keep], ps.R1, ps.R2, delta_left, delta_right)


@dataclass
class ShootResult:
    first_zero: float | None
    terminal_u: float
    terminal_flux: float
    # (mesh nodes, DenseNodes) per segment that holds one, up to the first
    # zero; _trace builds the (r, u, g) trace from them
    dense: list


@dataclass
class Eigenpair:
    lam: float
    mesh: Mesh
    u: np.ndarray
    flux: np.ndarray
    zero_count: int
    diagnostics: dict = field(default_factory=dict)


class _Segment:
    """One smooth segment [s0, s1] of a shoot: its rho and sigma pieces and
    the mesh nodes it holds, in r and in x = log(r - R1) (:meth:`fwd` maps r
    to x, :meth:`inv` back).  Every segment integrates in x: near R1 the
    solution is only Holder-smooth in r (pure powers of r - R1), which
    starves a high-order RK, and in x it is exponential-smooth.  A node on
    s1 belongs to the next segment, except on the last.
    """

    def __init__(self, ps, s0, s1, nodes, last):
        self.r1 = r1 = ps.R1
        self.s0, self.s1 = s0, s1
        rp, sp = (m.pieces[m.piece_index(s0 - r1)] for m in (ps.rho_model, ps.sigma_model))
        self.pieces = (rp.c, rp.a, rp.b, rp.l, sp.c, sp.a, sp.b, sp.l)
        self.r_nodes = nodes[(nodes >= s0) & ((nodes <= s1) if last else (nodes < s1))]
        self.x_nodes = [self.fwd(r) for r in self.r_nodes]

    def fwd(self, r):
        return math.log(r - self.r1)

    def inv(self, x):
        return self.r1 + np.exp(x)


def _segment_rhs(ps, lam, seg):
    """RHS closure specialized to the weight pieces of the segment ``seg``.

    The closure takes x = log(r - R1) and applies the chain-rule factor
    dr/dx = e^x; the offset t = r - R1 is formed from r = R1 + e^x.
    """
    r1 = ps.R1
    expo = 1.0 / (ps.p - 1.0)
    pm1 = ps.p - 1.0
    minus_lam = -lam
    cv, av, bv, lv, cw, aw, bw, lw = seg.pieces

    def rhs(x, y):
        u, g = y
        ex = math.exp(x)
        r = r1 + ex
        t = r - r1
        rho = cv
        if av != 0.0:
            rho *= t**av
        if bv != 0.0:
            rho *= r**bv
        if lv != 0.0:
            rho *= math.log(r) ** lv
        sig = cw
        if aw != 0.0:
            sig *= t**aw
        if bw != 0.0:
            sig *= r**bw
        if lw != 0.0:
            sig *= math.log(r) ** lw
        # phi(x) = sign(x) |x|^e, branching on the sign (rho > 0) instead of
        # calling abs and copysign; a NaN takes the last branch and stays NaN
        du = (g / rho) ** expo if g > 0.0 else 0.0 if g == 0.0 else -((-g / rho) ** expo)
        dg = minus_lam * sig * (u**pm1 if u > 0.0 else 0.0 if u == 0.0 else -((-u) ** pm1))
        return (du * ex, dg * ex)

    return rhs


@np.errstate(over="raise", invalid="raise")
def _integrate_segment(ps, lam, seg, y, atol):
    """Integrate one smooth segment from the state ``y`` up to u's first
    zero, keeping the dense output at its mesh nodes.  A state that
    overflows raises FloatingPointError (or OverflowError), not NaN."""
    return solve_ivp(_segment_rhs(ps, lam, seg), (seg.fwd(seg.s0), seg.fwd(seg.s1)), y,
                     rtol=_RTOL, atol=atol, nodes=seg.x_nodes)


class _Shooting:
    """What every shoot of one root shares, read from its ``mesh``: the start
    on the left asymptote at R1 + ``mesh.delta_left``, the end, the
    tolerances (``atol`` on u tied to the envelope's scale) and the smooth
    segments between the weight junctions, each with its weight pieces and
    mesh nodes.  Built once per root, so a shoot only integrates."""

    def __init__(self, ps, mesh):
        if ps.phi_rho_conj.divergent:
            raise SolverError("rho^(1-p') not integrable near R1; no shooting start")
        self.ps, self.mesh = ps, mesh
        r0 = ps.R1 + mesh.delta_left
        u0 = ps.phi_rho_conj(r0)
        self.y0 = (float(u0), 1.0)
        edges = [r0, *(t for t in ps.junctions if t > r0), mesh.r_end]
        # absolute tolerances tied to the natural scales (u ~ envelope, g ~ 1);
        # a tiny atol on u would stall the stepper at the u = 0 crossing, where
        # |u|^{p-2}u has a root-type kink for p < 2
        u_ref = float(ps.phi_rho_conj(mesh.r_end))
        if not math.isfinite(u_ref):
            u_ref = float(u0) * 1e6
        self.atol_u = 1e-13 * max(u_ref, u0)
        self.segments = [
            _Segment(ps, s0, s1, mesh.nodes, s1 == edges[-1])
            for s0, s1 in zip(edges[:-1], edges[1:])
        ]

    def __call__(self, lam) -> ShootResult:
        atol = [self.atol_u, 1e-12 * (1.0 + lam)]
        y = self.y0
        dense = []
        first_zero = None
        for seg in self.segments:
            try:
                sol = _integrate_segment(self.ps, lam, seg, y, atol)
            except (FloatingPointError, OverflowError) as exc:
                # lam far above the spectrum: a failed shot, not a NaN margin
                raise SolverError(
                    f"shooting overflowed past r={seg.s0} at lam={lam}") from exc
            if not sol.success:
                raise SolverError(
                    f"integrator failed near r={float(seg.inv(sol.t[-1]))}: {sol.message}"
                )
            if len(sol.dense.x):
                dense.append((seg.r_nodes[:len(sol.dense.x)], sol.dense))
            if sol.status == 1:  # event: u crossed zero
                first_zero = float(seg.inv(sol.t_events[0][0]))
                y = (0.0, float(sol.y_events[0][0][1]))
                break
            y = (float(sol.y[0, -1]), float(sol.y[1, -1]))
        return ShootResult(first_zero, y[0], y[1], dense=dense)


def shoot(plan: _Shooting, lam) -> ShootResult:
    """The one entry point for shooting: integrate at ``lam`` > 0 on the
    set-up ``plan`` from its mesh's first node to ``r_end``, or to u's first
    interior zero, keeping the dense output at the mesh nodes on the way,
    from which :func:`_trace` builds (r, u, g).  Callers look it up at call
    time, so a tracer can wrap it."""
    if not lam > 0:
        raise SolverError(f"lam must be positive, not {lam}")
    return plan(lam)


@np.errstate(over="raise", invalid="raise")
def _trace(res):
    """(r, u, g) at the nodes a shoot kept; SolverError if it kept none."""
    if not res.dense:
        raise SolverError("no trace produced")
    try:
        values = [dense() for _, dense in res.dense]
    except (FloatingPointError, OverflowError) as exc:
        raise SolverError("the eigenfunction's dense output overflowed") from exc
    return (np.concatenate([r for r, _ in res.dense]),
            np.concatenate([v[0] for v in values]),
            np.concatenate([v[1] for v in values]))


def _margin(lam, plan, matcher=None):
    """Continuous, Sturm-monotone shooting objective, and the shoot.

    Dirichlet: terminal u while no interior zero, else minus the distance of
    the first zero from r_end.  With ``matcher`` (exterior right envelope
    data), the target is instead the decay-matched condition
    u'/u = envelope'/envelope at r_end.
    """
    ps = plan.ps
    res = shoot(plan, lam)
    if res.first_zero is not None:
        return -(plan.mesh.r_end - res.first_zero), res
    if matcher is None:
        return res.terminal_u, res
    psi_end, rho_end, rhoc_end = matcher
    g = res.terminal_flux
    du = math.copysign(abs(g / rho_end) ** (1.0 / (ps.p - 1.0)), g) if g else 0.0
    return du * psi_end + res.terminal_u * rhoc_end, res


def _coarse_lambda_estimate(ps):
    mesh = make_mesh(ps, n_core=200, per_decade=6)
    # an envelope near the float range overflows the quotient's p-th powers
    with np.errstate(over="ignore", invalid="ignore"):
        lam = rayleigh_quotient(ps, mesh, envelope_hat(ps, mesh))
    if not 0.0 < lam < math.inf:
        raise SolverError(f"no starting estimate for lam_1: the Rayleigh quotient "
                          f"of the envelope hat is {lam}")
    return lam


def _lambda1_truncated(ps, tol, n_core, per_decade, bracket=None, matcher=None):
    """lam_1 of the finite problem ``ps`` (an annulus or a ladder rung), the
    root's set-up on the mesh built before the root, and the shoot at lam_1
    that kept the dense output at the mesh nodes (None if that shoot was not
    held).

    Only the latest shoot on each side of the root is held, counting memo
    hits in the order brentq asks for lam; brentq returns one of the two
    nearly always.
    """
    plan = _Shooting(ps, make_mesh(ps, n_core=n_core, per_decade=per_decade))
    margins = {}
    latest = {}  # margin > 0 -> (lam, its shoot, or None after a memo hit)

    def f(lam):
        # brentq starts from both bracket ends, which the search just shot
        if lam in margins:
            m = margins[lam]
            if latest[m > 0.0][0] != lam:
                latest[m > 0.0] = (lam, None)
        else:
            m, res = _margin(lam, plan, matcher=matcher)
            margins[lam] = m
            latest[m > 0.0] = (lam, res)
        return m

    if bracket is None:
        lo = hi = _coarse_lambda_estimate(ps)
    else:
        lo, hi = bracket
    n_expand = 0
    while f(lo) <= 0.0:
        hi, lo = lo, lo * 0.5
        n_expand += 1
        if n_expand > 80:
            raise SolverError(
                f"no lower bracket for lam_1 found down to {lo}; check the problem")
    n_expand = 0
    while f(hi) > 0.0:
        lo, hi = hi, hi * 2.0
        n_expand += 1
        if n_expand > 80:
            raise SolverError(
                f"no upper bracket for lam_1 found up to {hi}; check the problem")
    lam = brentq(f, lo, hi, rtol=max(tol, 1e-14), xtol=1e-300)
    kept = next((res for at, res in latest.values() if at == lam), None)
    return lam, plan, kept


def _eigenpair_from_shoot(lam, plan, kept, tol, diagnostics):
    """Eigenfunction of the root ``lam`` found with the set-up ``plan``, on
    its mesh: the root's own shoot ``kept`` at ``lam`` (shot afresh if it
    was not held), stepped down by 8 * ``tol`` (at most eight times) on the
    same set-up while the trace is not positive, and SolverError if it still
    is not; ``diagnostics`` records the root as ``lambda_root`` and the
    steps taken as ``lambda_nudges``."""
    ps = plan.ps
    lam_side = lam
    nudges = 0
    res = kept
    for i in range(8):
        if i or res is None:
            res = shoot(plan, lam_side)
        if res.first_zero is None and res.terminal_u >= 0.0:
            break
        lam_side *= 1.0 - 8.0 * max(tol, 1e-12)
        nudges += 1
    else:
        raise SolverError(f"trace still not positive {nudges} nudges below lam = {lam}")
    r, u, g = _trace(res)
    scale = float(np.max(u))
    if scale <= 0:
        raise SolverError("eigenfunction not positive")
    u_n = u / scale
    g_n = g / scale ** (ps.p - 1.0)
    zero_count = int(np.sum(np.diff(np.sign(u_n[np.abs(u_n) > 0])) != 0))
    diagnostics = dict(diagnostics)
    diagnostics["lambda_root"] = lam
    diagnostics["lambda_nudges"] = nudges
    diagnostics["terminal_u_over_max"] = res.terminal_u / scale
    diagnostics["residual_norm"] = _discrete_residual(ps, plan.mesh, u_n, g_n, lam_side)
    return Eigenpair(lam_side, plan.mesh, u_n, g_n, zero_count, diagnostics)


def _discrete_residual(ps, mesh, u, g, lam):
    """max |Δg/Δr + lam sigma |u|^{p-2}u| * (local spacing) at cell midpoints."""
    r = mesh.nodes
    mid = 0.5 * (r[1:] + r[:-1])
    h = np.diff(r)
    dg = np.diff(g) / h
    sig = ps.sigma_model(mid)
    umid = 0.5 * (u[1:] + u[:-1])
    res = dg + lam * sig * np.sign(umid) * np.abs(umid) ** (ps.p - 1.0)
    return float(np.max(np.abs(res) * h))


def find_lambda1(ps: ProblemSpec, r_max=None, ladder=None, tol=1e-10,
                 n_core=1200, per_decade=12, check=True,
                 bc="dirichlet") -> Eigenpair:
    """Principal eigenvalue and eigenfunction.

    Finite R2: one truncation-free solve.  R2 = inf: a truncation ladder over
    ``ladder``, strictly increasing radii above R1 (default R1 * 2^k, k =
    2..7, or up to ``r_max``, stopping once successive values agree to a
    relative 1e-3); ``lam`` is the Richardson-extrapolated limit, the
    eigenfunction belongs to the largest rung, and the monotone ladder is
    reported in ``diagnostics['ladder']``.  With fewer than three rungs, or
    last differences that do not shrink geometrically, ``lam`` is the last
    rung's value and ``diagnostics['richardson_applied']`` is False.

    ``bc`` selects the truncation condition: plain ``'dirichlet'`` (default;
    certified one-sided monotone convergence, but only at the slow rate the
    bounded companion solution allows) or ``'matched'`` (u'/u equal to the
    exterior envelope's logarithmic derivative at r_end, far faster in R).
    ValueError for a ``tol`` that is not finite and positive, a non-finite
    ``r_max``, any other ``bc``, ``'matched'``, ``ladder`` or ``r_max`` on a
    finite R2, both ``ladder`` and ``r_max``, and a ladder that is empty,
    not increasing or not above R1.

    ``check=True`` enforces the condition-(A) precondition (override with
    ``check=False``).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, not {tol}")
    if r_max is not None and not math.isfinite(r_max):
        raise ValueError(f"r_max must be finite, not {r_max}")  # its ladder never ends
    if bc not in ("dirichlet", "matched"):
        raise ValueError(f"bc must be 'dirichlet' or 'matched', not {bc!r}")
    finite = math.isfinite(ps.R2)
    if finite and (bc == "matched" or ladder is not None or r_max is not None):
        raise ValueError("bc='matched', ladder and r_max are for exterior "
                         f"domains only; this one ends at R2 = {ps.R2}")
    auto_ladder = ladder is None
    if not finite and auto_ladder:
        top = r_max if r_max is not None else ps.R1 * LADDER_TOP
        ladder = []
        rk = ps.R1 * 4.0
        while rk <= top * (1 + 1e-12):
            ladder.append(rk)
            rk *= 2.0
        if r_max is not None and (not ladder or ladder[-1] < r_max * (1 - 1e-12)):
            ladder.append(float(r_max))
    elif r_max is not None:
        raise ValueError("pass either ladder or r_max, not both")
    if not finite:
        ladder = [float(rk) for rk in ladder]
        if not ladder or ladder[0] <= ps.R1 or any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError("the truncation ladder must be a non-empty, strictly "
                             f"increasing list of radii above R1 = {ps.R1}, not {ladder}")
    if check:
        from . import conditions

        rep = conditions.check_A(ps, tol=1e-6)
        if rep.verdict == conditions.FAILS:
            raise SolverError(
                f"condition (A) fails ({rep.notes}); pass check=False to override"
            )
    diagnostics = {"lambda_rtol": tol}
    if finite:
        lam, *root = _lambda1_truncated(ps, tol, n_core, per_decade)
        diagnostics["truncation_radius"] = ps.R2
        diagnostics["bisection_width"] = tol * lam
        return _eigenpair_from_shoot(lam, *root, tol, diagnostics)

    rungs = []
    lam_prev = None
    brk = None
    for rk in ladder:
        ps_k = ps.truncated(rk)
        matcher = None
        if bc == "matched":
            r_in = rk * (1.0 - 1e-13)
            matcher = (
                float(ps.psi_rho_conj(rk)),
                float(ps.rho_model(r_in)),
                float(ps.rho_conj_model(r_in)),
            )
        lam_k, *root = _lambda1_truncated(ps_k, tol, n_core, per_decade, bracket=brk,
                                          matcher=matcher)
        rungs.append((rk, lam_k))
        if lam_prev is not None:
            if lam_k > lam_prev * (1.0 + 1e-8) and bc == "dirichlet":
                # domain inclusion guarantees the Dirichlet ladder decreases
                raise SolverError(
                    f"truncation ladder not monotone at R={rk}: "
                    f"{lam_k} > {lam_prev}"
                )
            if auto_ladder and abs(lam_prev - lam_k) <= 1e-3 * lam_k:
                break
        brk = (0.25 * lam_k, lam_k * (1.0 + 1e-6))
        lam_prev = lam_k
    lams = [l for _, l in rungs]
    lam_ext = lams[-1]
    richardson = False
    if len(lams) >= 3:
        d1, d2 = lams[-2] - lams[-1], lams[-3] - lams[-2]
        if d2 > 0 and 0 < d1 < d2:
            q = d1 / d2
            lam_ext = lams[-1] - d1 * q / (1.0 - q)
            richardson = True
    diagnostics["ladder"] = rungs
    diagnostics["truncation_radius"] = rungs[-1][0]
    diagnostics["lambda_dirichlet_last"] = lams[-1]
    diagnostics["bisection_width"] = tol * lams[-1]
    eig = _eigenpair_from_shoot(lams[-1], *root, tol, diagnostics)
    eig.lam = lam_ext
    eig.diagnostics["lambda_extrapolated"] = lam_ext
    eig.diagnostics["richardson_applied"] = richardson
    return eig


# ---------------------------------------------------------------------------
# discrete Rayleigh quotient and its minimization
# ---------------------------------------------------------------------------


def _assemble(ps, mesh):
    """Cell p-capacities and dual sigma masses for the discrete quotient.

    The gradient term on a cell is |Δu|^p / (∫_cell rho^{1-p'})^{p-1}: the
    exact minimal weighted energy of any profile crossing the cell, finite
    even where rho itself is non-integrable, and reducing to the usual
    finite-difference weight for constant rho.  When sigma itself is not
    integrable at R1 (allowed: only P sigma needs to be), the first dual
    mass is taken against the linear ramp from the boundary zero, i.e.
    ∫ sigma ((r-R1)/h)^p, which the vanishing of u keeps finite.
    """
    if ps.phi_rho_conj.divergent:
        raise SolverError(
            "rho^(1-p') not integrable near R1: the Dirichlet condition "
            "there carries no finite-capacity discretization"
        )
    edges = np.concatenate([[mesh.r1], mesh.nodes, [mesh.r_end]])
    capm = quad.interval_integrals(ps.rho_conj_model, edges)
    kappa = capm ** (1.0 - ps.p)
    mids = 0.5 * (mesh.nodes[1:] + mesh.nodes[:-1])
    dual = np.concatenate([[mesh.r1], mids, [mesh.r_end]])
    if integrable(ps.sigma_model, LEFT_R1):
        dmass = quad.interval_integrals(ps.sigma_model, dual)
    else:
        n0 = mesh.nodes[0]
        h0 = n0 - mesh.r1
        v_ramp = quad.interval_integrals(ps.sigma_model.times(a=ps.p), [ps.R1, n0])[0]
        first = v_ramp / h0**ps.p + quad.interval_integrals(
            ps.sigma_model, np.array([n0, dual[1]])
        )[0]
        rest = quad.interval_integrals(ps.sigma_model, dual[1:])
        dmass = np.concatenate([[first], rest])
    return kappa, dmass


def rayleigh_quotient(ps: ProblemSpec, mesh: Mesh, u_values) -> float:
    """Discrete quotient ∫ rho |u'|^p / ∫ sigma |u|^p with zero boundary ghosts."""
    u = np.asarray(u_values, dtype=float)
    if len(u) != mesh.n:
        raise ValueError("u_values must match the mesh nodes")
    kappa, dmass = _assemble(ps, mesh)
    return _quotient(ps.p, kappa, dmass, u)


def _quotient(p, kappa, dmass, u):
    du = np.diff(u, prepend=0.0, append=0.0)
    num = float(np.sum(np.abs(du) ** p * kappa))
    den = float(np.sum(dmass * np.abs(u) ** p))
    if den <= 0.0:
        raise ValueError("zero denominator: u vanishes in the sigma norm")
    return num / den


def envelope_hat(ps: ProblemSpec, mesh: Mesh):
    """Positive hat min(Φ, Φ_last − Φ + 1e-6 Φ_first) on the nodes, Φ the left
    envelope, floored at 1e-12 of its max: where Rayleigh and shooting start."""
    phi = ps.phi_rho_conj(mesh.nodes)
    hat = np.minimum(phi, phi[-1] - phi + phi[0] * 1e-6)
    return np.maximum(hat, 1e-12 * np.max(hat))


def _inverse_step(p, kappa, dmass, u):
    """v with -Δ(kappa φ_p(Δv)) = dmass φ_p(u) and zero boundary ghosts.

    The cell flux kappa φ_p(Δv) equals c - s with s = [0, cumsum(dmass
    u^{p-1})]; the constant c, fixed by ΣΔv = 0, is found by Newton steps
    inside the bracket [0, s[-1]] that each sum narrows, bisecting where
    Newton leaves it (for p > 2 the slope is infinite where c = s_k) and
    stepping one float where it stalls, down to adjacent floats: the c that
    plain bisection reaches, in 4-9 sums instead of 55.  Δv is positive
    before the cell where c - s changes sign and negative after it, so each
    node sums Δv from its nearer side, a sum of terms of one sign.
    """
    s = np.concatenate([[0.0], np.cumsum(dmass * u ** (p - 1.0))])
    expo = 1.0 / (p - 1.0)

    def dv(c):
        f = (c - s) / kappa
        return f, np.sign(f) * np.abs(f) ** expo

    lo, hi = 0.0, float(s[-1])
    c = 0.5 * (lo + hi)
    while True:
        f, d = dv(c)
        total = float(np.sum(d))
        if total < 0.0:
            lo = c
        else:
            hi = c
        # d(Δv)/dc = expo |f|^(expo - 1) / kappa = expo Δv / (f kappa)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = expo * float(np.sum(d / (f * kappa)))
        c_new = c - total / slope if slope > 0.0 else math.nan
        if c_new == c and slope < math.inf:
            c_new = math.nextafter(c, hi if total < 0.0 else lo)
        if not lo < c_new < hi:
            c_new = 0.5 * (lo + hi)
            if c_new in (lo, hi):
                break
        c = c_new
    d = dv(c_new)[1]
    k = int(np.searchsorted(s, c_new))
    return np.concatenate([np.cumsum(d[:k]), -np.cumsum(d[:k:-1])[::-1]])


def rayleigh_minimize(ps: ProblemSpec, mesh: Mesh) -> Eigenpair:
    """First eigenpair of the discrete quotient by inverse iteration.

    Each step solves the discrete problem -Δ(kappa φ_p(Δv)) = dmass φ_p(u)
    for v from the current iterate u (:func:`_inverse_step`), the inverse
    power iteration of Biezuner, Ercole and Martins (J. Funct. Anal. 257,
    2009), started from :func:`envelope_hat`.  By the discrete Picone and
    Barta inequalities (Allegretto and Huang, Nonlinear Anal. 32, 1998) the
    discrete eigenvalue lambda_h lies between min and max of (u/v)^{p-1};
    iteration stops once that enclosure is 1e-12 wide relative to its lower
    end.  ``lam`` is the quotient of the last v, a weighted mean of (u/v)^{p-1}
    and so inside the enclosure, which ``diagnostics['lambda_h_bounds']``
    reports.  Reaching 200 steps first sets ``diagnostics['stagnated']``
    instead of raising.
    """
    kappa, dmass = _assemble(ps, mesh)
    p = ps.p
    u = envelope_hat(ps, mesh)
    for it in range(1, 201):
        v = _inverse_step(p, kappa, dmass, u)
        ratio = (u / v) ** (p - 1.0)
        lo, hi = float(np.min(ratio)), float(np.max(ratio))
        u = v / np.max(v)
        if hi - lo <= 1e-12 * lo:
            break
    nz = u[np.abs(u) > 0]
    zero_count = int(np.sum(np.diff(np.sign(nz)) != 0))
    diagnostics = {
        "iterations": it,
        "stagnated": hi - lo > 1e-12 * lo,
        "lambda_h_bounds": [lo, hi],
    }
    lam = _quotient(p, kappa, dmass, u)
    return Eigenpair(lam, mesh, u, flux(ps, mesh, u), zero_count, diagnostics)


# ---------------------------------------------------------------------------
# flux
# ---------------------------------------------------------------------------


def flux(ps: ProblemSpec, mesh: Mesh, u_values):
    """g = rho |u'|^{p-2} u' with u' by centered differences on the graded mesh."""
    r = mesh.nodes
    u = np.asarray(u_values, dtype=float)
    du = np.empty_like(u)
    h = np.diff(r)
    # second-order nonuniform stencil as a slope average (difference-first
    # form avoids the cancellation of the raw three-point formula on tiny
    # graded cells), one-sided at the ends
    s = np.diff(u) / h
    hm, hp = h[:-1], h[1:]
    du[1:-1] = (hp * s[:-1] + hm * s[1:]) / (hm + hp)
    du[0] = s[0]
    du[-1] = s[-1]
    rho_vals = ps.rho_model(r)
    return rho_vals * np.abs(du) ** (ps.p - 1.0) * np.sign(du)

