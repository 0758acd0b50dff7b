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

Each smooth segment is integrated by the package's own DOP853 driver
(:func:`radial_plap.dop853.solve_ivp`), bit-identical to scipy's
``solve_ivp(method="DOP853")`` without scipy's per-stage wrapping.

lam_1 is located by root-finding on a continuous shooting margin (terminal
value of u while no interior zero exists, minus the distance of the first
zero from the right endpoint once one appears); Sturm ordering makes the
margin monotone, so the root is the principal eigenvalue.  Exterior domains
(R2 = inf) are handled by a Dirichlet truncation ladder R_max = R1 * 2^k,
whose values decrease monotonically to lam_1 by domain inclusion.

Independent cross-checks: a discrete Rayleigh-quotient minimizer
(:func:`rayleigh_minimize`) and the left-boundary fixed-point integral map
(:func:`fixed_point_left`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from . import quadrature as quad
from .dop853 import solve_ivp
from .weights import ProblemSpec

INF = math.inf


class SolverError(RuntimeError):
    pass


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


def _default_delta_left(ps, r_end):
    """Offset where the left envelope is 1e-6 of its midpoint value."""
    phi = ps.phi_rho_conj
    mid = 0.5 * (ps.R1 + r_end)
    target = 1e-6 * phi(mid)
    lo, hi = 1e-13 * max(1.0, ps.R1), 0.25 * (r_end - ps.R1)
    if phi(ps.R1 + lo) >= target:
        return lo
    for _ in range(200):
        m = math.sqrt(lo * hi)
        if phi(ps.R1 + m) < target:
            lo = m
        else:
            hi = m
        if hi / lo < 1.0001:
            break
    return lo


def make_mesh(ps: ProblemSpec, r_end=None, n_core=1200, per_decade=12,
              delta_left=None, delta_right=None, layer_frac=0.02) -> Mesh:
    """Graded mesh: narrow geometric boundary layers plus a dense core.

    The layers run from the offsets down at ``delta_left``/``delta_right`` out
    to ``layer_frac`` of the span, with ``per_decade`` nodes per decade of
    boundary distance; keeping them narrow leaves the core (log-spaced when
    the domain spans more than a decade in r, uniform otherwise) to resolve
    the eigenfunction's bulk.  Weight junctions are inserted as nodes so
    intervals never straddle a coefficient jump.
    """
    if r_end is None:
        if not math.isfinite(ps.R2):
            raise SolverError("r_end required for exterior domains")
        r_end = ps.R2
    span = r_end - ps.R1
    if delta_left is None:
        delta_left = _default_delta_left(ps, r_end)
    if delta_right is None:
        delta_right = 1e-9 * span
    layer_l = max(span * layer_frac, 1e3 * delta_left)
    layer_r = max(span * layer_frac, 1e3 * delta_right)
    k_left = max(2, int(math.ceil(per_decade * math.log10(layer_l / delta_left))))
    d_left = delta_left * (layer_l / delta_left) ** (np.arange(k_left + 1) / k_left)
    k_right = max(2, int(math.ceil(per_decade * math.log10(layer_r / delta_right))))
    d_right = delta_right * (layer_r / delta_right) ** (np.arange(k_right + 1) / k_right)
    left_nodes = ps.R1 + d_left
    right_nodes = r_end - d_right
    a, b = ps.R1 + layer_l, r_end - layer_r
    if (ps.R1 + span) / max(ps.R1, 1e-300) > 10.0 and ps.R1 > 0:
        core = np.geomspace(a, b, n_core)
    else:
        core = np.linspace(a, b, n_core)
    junctions = [
        t for t in set(ps.v.breakpoints()) | set(ps.w.breakpoints())
        if ps.R1 + delta_left < t < r_end - delta_right and math.isfinite(t)
    ]
    nodes = np.concatenate([left_nodes, core, right_nodes, np.array(junctions)])
    nodes = np.unique(nodes)
    nodes = nodes[(nodes >= ps.R1 + delta_left) & (nodes <= r_end - delta_right)]
    keep = np.concatenate([[True], np.diff(nodes) > 1e-15 * np.maximum(1.0, nodes[1:])])
    return Mesh(nodes[keep], ps.R1, r_end, delta_left, delta_right)


@dataclass
class ShootResult:
    first_zero: float | None
    terminal_u: float
    terminal_flux: float
    trace: tuple | None = None  # (r, u, g) arrays on the requested nodes


@dataclass
class Eigenpair:
    lam: float
    mesh: Mesh
    u: np.ndarray
    flux: np.ndarray
    zero_count: int
    diagnostics: dict = field(default_factory=dict)


def _segment_rhs(ps, lam, s0, shift):
    """RHS closure specialized to the weight pieces of the segment from s0.

    The closure takes the integration variable x: r itself when ``shift``
    is None, else x = log(r - shift), whose chain-rule factor dr/dx = e^x
    it applies.
    """
    r1 = ps.R1
    nm1 = float(ps.N - 1)
    expo = 1.0 / (ps.p - 1.0)
    pm1 = ps.p - 1.0
    vp = ps.v.pieces[ps.v.piece_index(s0)]
    wp = ps.w.pieces[ps.w.piece_index(s0)]
    cv, av, bv, lv = vp.c, vp.a, vp.b + nm1, vp.l
    cw, aw, bw, lw = wp.c, wp.a, wp.b + nm1, wp.l
    log_var = shift is not None

    def rhs(x, y):
        u, g = y
        if log_var:
            ex = math.exp(x)
            r = shift + ex
        else:
            r = x
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
        du = math.copysign(abs(g / rho) ** expo, g) if g != 0.0 else 0.0
        dg = -lam * sig * (math.copysign(abs(u) ** pm1, u) if u != 0.0 else 0.0)
        if log_var:
            return (du * ex, dg * ex)
        return (du, dg)

    return rhs


@np.errstate(over="raise", invalid="raise")
def _integrate_segment(ps, lam, s0, s1, y, rtol, atol, want_dense):
    """Integrate one smooth segment, choosing the integration variable.

    Near the inner boundary the solution is only Holder-smooth in r (pure
    powers of r - R1), which starves a high-order RK; in x = log(r - R1) it
    is exponential-smooth.  Long multiplicative spans similarly integrate in
    log r.  Returns (solution, transform, inverse) where transform maps r to
    the integration variable.  A state that overflows raises
    FloatingPointError (or OverflowError) instead of turning to NaN.
    """
    r1 = ps.R1
    d0, d1 = s0 - r1, s1 - r1
    if d0 < 0.05 * d1:
        shift = r1

        def fwd(r):
            return math.log(r - r1)

        def inv(x):
            return r1 + np.exp(x)

    elif s0 > 0 and s1 / s0 > 8.0:
        shift = 0.0
        fwd = math.log
        inv = np.exp
    else:
        shift = None

        def fwd(r):
            return r

        def inv(x):
            return x

    rhs = _segment_rhs(ps, lam, s0, shift)

    def hit_zero(x, yy):
        return yy[0]

    sol = solve_ivp(rhs, (fwd(s0), fwd(s1)), y, rtol=rtol, atol=atol,
                    dense_output=want_dense, events=hit_zero)
    return sol, fwd, inv


def shoot(ps: ProblemSpec, lam, r_end=None, mesh: Mesh | None = None,
          delta_left=None, rtol=1e-11, want_trace=False) -> ShootResult:
    """Integrate the flux system from the left asymptote; stop at the first
    interior zero of u if one occurs.

    Requires rho^{1-p'} integrable near R1 (the asymptote used for the start).
    """
    if lam <= 0:
        raise SolverError("lam must be positive")
    if mesh is not None:
        r_end = mesh.r_end
        delta_left = mesh.delta_left
    if r_end is None:
        if not math.isfinite(ps.R2):
            raise SolverError("r_end required for exterior domains")
        r_end = ps.R2
    if ps.phi_rho_conj.divergent:
        raise SolverError("rho^(1-p') not integrable near R1; no shooting start")
    if delta_left is None:
        delta_left = _default_delta_left(ps, r_end)
    r0 = ps.R1 + delta_left
    u0 = ps.phi_rho_conj(r0)
    y = (float(u0), 1.0)

    cuts = sorted(
        t for t in set(ps.v.breakpoints()) | set(ps.w.breakpoints())
        if r0 < t < r_end and math.isfinite(t)
    )
    seg_edges = [r0] + cuts + [r_end]
    # absolute tolerances tied to the natural scales (u ~ envelope, g ~ 1);
    # a tiny atol on u would stall the stepper at the u = 0 crossing, where
    # |u|^{p-2}u has a root-type kink for p < 2
    u_ref = float(ps.phi_rho_conj(r_end))
    if not math.isfinite(u_ref):
        u_ref = float(u0) * 1e6
    atol = [1e-13 * max(u_ref, u0), 1e-12 * (1.0 + lam)]
    trace_nodes = mesh.nodes if (want_trace and mesh is not None) else None
    tr_r, tr_u, tr_g = [], [], []
    first_zero = None
    for s0, s1 in zip(seg_edges[:-1], seg_edges[1:]):
        try:
            sol, fwd, inv = _integrate_segment(
                ps, lam, s0, s1, y, rtol, atol, trace_nodes is not None
            )
        except (FloatingPointError, OverflowError) as exc:
            # lam far above the spectrum: a failed shot, not a NaN margin
            raise SolverError(f"shooting overflowed past r={s0} at lam={lam}") from exc
        if not sol.success:
            raise SolverError(
                f"integrator failed near r={float(inv(sol.t[-1]))}: {sol.message}"
            )
        x_last = sol.t_events[0][0] if sol.status == 1 else sol.t[-1]
        if trace_nodes is not None:
            last_seg = s1 == seg_edges[-1]
            sel = trace_nodes[
                (trace_nodes >= s0)
                & ((trace_nodes <= s1) if last_seg else (trace_nodes < s1))
            ]
            xs = np.array([fwd(r) for r in sel])
            keep = xs <= x_last
            if np.any(keep):
                vals = sol.sol(xs[keep])
                tr_r.append(sel[keep])
                tr_u.append(vals[0])
                tr_g.append(vals[1])
        if sol.status == 1:  # event: u crossed zero
            first_zero = float(inv(sol.t_events[0][0]))
            y = (0.0, float(sol.y_events[0][0][1]))
            break
        y = (float(sol.y[0, -1]), float(sol.y[1, -1]))
    trace = None
    if trace_nodes is not None and tr_r:
        trace = (np.concatenate(tr_r), np.concatenate(tr_u), np.concatenate(tr_g))
    return ShootResult(first_zero, y[0], y[1], trace)


def _margin(ps, lam, r_end, delta_left, rtol, matcher=None):
    """Continuous, Sturm-monotone shooting objective.

    Dirichlet: terminal u while no interior zero, else minus the distance of
    the first zero from r_end.  With ``matcher`` (exterior right envelope
    data), the target is instead the decay-matched condition
    u'/u = envelope'/envelope at r_end.
    """
    res = shoot(ps, lam, r_end=r_end, delta_left=delta_left, rtol=rtol)
    if res.first_zero is not None:
        return -(r_end - res.first_zero)
    if matcher is None:
        return res.terminal_u
    psi_end, rho_end, rhoc_end = matcher
    g = res.terminal_flux
    du = math.copysign(abs(g / rho_end) ** (1.0 / (ps.p - 1.0)), g) if g else 0.0
    return du * psi_end + res.terminal_u * rhoc_end


def _coarse_lambda_estimate(ps, r_end):
    mesh = make_mesh(ps, r_end=r_end, n_core=200, per_decade=6)
    phi = ps.phi_rho_conj(mesh.nodes)
    hat = np.minimum(phi, phi[-1] - phi + phi[0] * 1e-6)
    hat = np.maximum(hat, 1e-12 * np.max(hat))
    return rayleigh_quotient(ps, mesh, hat)


def _lambda1_truncated(ps, r_end, tol, rtol, bracket=None, delta_left=None,
                       matcher=None):
    if delta_left is None:
        delta_left = _default_delta_left(ps, r_end)
    margins = {}

    def f(lam):
        # brentq starts from both bracket ends, which the search just shot
        if lam not in margins:
            margins[lam] = _margin(ps, lam, r_end, delta_left, rtol, matcher=matcher)
        return margins[lam]

    if bracket is None:
        lam0 = _coarse_lambda_estimate(ps, r_end)
        lo = hi = lam0
    else:
        lo, hi = bracket
    n_expand = 0
    while f(lo) <= 0.0:
        lo *= 0.5
        n_expand += 1
        if n_expand > 80:
            raise SolverError(
                f"no lower bracket for lam_1 found down to {lo}; "
                "check the problem or supply bracket=(lo, hi)"
            )
    n_expand = 0
    while f(hi) > 0.0:
        hi *= 2.0
        n_expand += 1
        if n_expand > 80:
            raise SolverError(
                f"no upper bracket for lam_1 found up to {hi}; "
                "check the problem or supply bracket=(lo, hi)"
            )
    lam = brentq(f, lo, hi, rtol=max(tol, 1e-14), xtol=1e-300)
    return lam, delta_left


def _eigenpair_from_shoot(ps, lam, mesh, rtol, diagnostics):
    """Eigenfunction shot at ``lam``, stepped down by 8 * tol (at most eight
    times) while the trace is not positive; ``diagnostics`` records the root
    as ``lambda_root`` and the steps taken as ``lambda_nudges``."""
    lam_side = lam
    nudges = 0
    res = None
    for _ in range(8):
        res = shoot(ps, lam_side, mesh=mesh, rtol=rtol, want_trace=True)
        if res.first_zero is None and res.terminal_u >= 0.0:
            break
        lam_side *= 1.0 - 8.0 * max(diagnostics.get("lambda_rtol", 1e-10), 1e-12)
        nudges += 1
    if res is None or res.trace is None:
        raise SolverError("no trace produced")
    r, u, g = res.trace
    if len(r) != mesh.n:
        mesh = Mesh(r, mesh.r1, mesh.r_end, mesh.delta_left, mesh.delta_right)
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
    diagnostics["residual_norm"] = _discrete_residual(ps, mesh, u_n, g_n, lam_side)
    return Eigenpair(lam_side, mesh, u_n, g_n, zero_count, diagnostics)


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
                 rtol=1e-11, n_core=1200, per_decade=12, check=True,
                 bracket=None, ladder_rtol=1e-3, mesh=None,
                 bc="dirichlet") -> Eigenpair:
    """Principal eigenvalue and eigenfunction.

    Finite R2: one truncation-free solve.  R2 = inf: a truncation ladder over
    ``ladder`` (default R1 * 2^k, k = 2..7, stopping once successive values
    agree to ``ladder_rtol``); ``lam`` is the Richardson-extrapolated limit,
    the eigenfunction belongs to the largest rung, and the monotone ladder is
    reported in ``diagnostics['ladder']``.

    ``bc`` selects the truncation condition: plain ``'dirichlet'`` (default;
    certified one-sided monotone convergence, but only at the slow rate the
    bounded companion solution allows) or ``'matched'`` (u'/u equal to the
    exterior envelope's logarithmic derivative at r_end, far faster in R).

    ``check=True`` enforces the condition-(A) precondition (override with
    ``check=False``).
    """
    if check:
        from . import conditions

        rep = conditions.check_A(ps, tol=1e-6)
        if rep.verdict == conditions.FAILS:
            raise SolverError(
                f"condition (A) fails ({rep.notes}); pass check=False to override"
            )
    diagnostics = {"lambda_rtol": tol}
    if math.isfinite(ps.R2):
        lam, delta_left = _lambda1_truncated(ps, ps.R2, tol, rtol, bracket=bracket)
        if mesh is None:
            mesh = make_mesh(ps, r_end=ps.R2, n_core=n_core, per_decade=per_decade,
                             delta_left=delta_left)
        diagnostics["truncation_radius"] = ps.R2
        diagnostics["bisection_width"] = tol * lam
        return _eigenpair_from_shoot(ps, lam, mesh, rtol, diagnostics)

    auto_ladder = ladder is None
    if auto_ladder:
        top = r_max if r_max is not None else ps.R1 * 2.0**7
        ladder = []
        rk = ps.R1 * 4.0
        while rk <= top * (1 + 1e-12):
            ladder.append(rk)
            rk *= 2.0
        if r_max is not None and (not ladder or ladder[-1] < r_max * (1 - 1e-12)):
            ladder.append(float(r_max))
    rungs = []
    lam_prev = None
    brk = bracket
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
        lam_k, _ = _lambda1_truncated(ps_k, rk, tol, rtol, bracket=brk,
                                      matcher=matcher)
        rungs.append((rk, lam_k))
        if lam_prev is not None:
            if lam_k > lam_prev * (1.0 + 1e-8) and bc == "dirichlet":
                # domain inclusion guarantees the Dirichlet ladder decreases
                raise SolverError(
                    f"truncation ladder not monotone at R={rk}: "
                    f"{lam_k} > {lam_prev}"
                )
            if auto_ladder and abs(lam_prev - lam_k) <= ladder_rtol * lam_k:
                break
        brk = (0.25 * lam_k, lam_k * (1.0 + 1e-6))
        lam_prev = lam_k
    lams = [l for _, l in rungs]
    lam_ext = lams[-1]
    if len(lams) >= 3:
        d1, d2 = lams[-2] - lams[-1], lams[-3] - lams[-2]
        if d2 > 0 and 0 < d1 < d2:
            q = d1 / d2
            lam_ext = lams[-1] - d1 * q / (1.0 - q)
    r_last = rungs[-1][0]
    ps_last = ps.truncated(r_last)
    if mesh is None:
        mesh = make_mesh(ps_last, r_end=r_last, n_core=n_core, per_decade=per_decade)
    diagnostics["ladder"] = rungs
    diagnostics["truncation_radius"] = r_last
    diagnostics["lambda_dirichlet_last"] = rungs[-1][1]
    diagnostics["bisection_width"] = tol * rungs[-1][1]
    eig = _eigenpair_from_shoot(ps_last, rungs[-1][1], mesh, rtol, diagnostics)
    eig.lam = lam_ext
    eig.diagnostics["lambda_extrapolated"] = lam_ext
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
    if quad.left_integrable(ps.sigma_model):
        dmass = quad.interval_integrals(ps.sigma_model, dual)
    else:
        from dataclasses import replace as _replace

        n0 = mesh.nodes[0]
        h0 = n0 - mesh.r1
        p0 = ps.sigma_model.pieces[0]
        ramp = _replace(p0, a=p0.a + ps.p)
        v_ramp, _, _ = quad._piece_partial(ramp, ps.R1, ps.R1, n0)
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


def _quotient_grad(p, kappa, dmass, u):
    du = np.diff(u, prepend=0.0, append=0.0)
    flux = np.abs(du) ** (p - 1.0) * np.sign(du) * kappa
    num = float(np.sum(np.abs(du) ** p * kappa))
    den = float(np.sum(dmass * np.abs(u) ** p))
    q = num / den
    gnum = p * (flux[:-1] - flux[1:])
    gden = p * dmass * np.abs(u) ** (p - 1.0) * np.sign(u)
    return q, (gnum - q * gden) / den


def envelope_hat(ps: ProblemSpec, mesh: Mesh):
    """Positive initial guess shaped like min(left, right) envelope."""
    phi = ps.phi_rho_conj(mesh.nodes)
    total = ps.phi_rho_conj(mesh.r_end)
    hat = np.minimum(phi, total - phi)
    return np.maximum(hat, 1e-10 * np.max(hat))


def rayleigh_minimize(ps: ProblemSpec, mesh: Mesh, u0=None, maxiter=200,
                      qtol=1e-13, check=False) -> Eigenpair:
    """Minimize the discrete quotient over nonnegative mesh functions.

    Monotone descent: the gradient is preconditioned by the tridiagonal
    linearization of the discrete p-Laplacian at the current iterate (an O(n)
    banded solve), the step comes from an exact scalar line search, and each
    trial is clamped at 0 and renormalized in the sigma-weighted p-norm.
    Without the preconditioner the graded mesh's capacity spread (many orders
    of magnitude between boundary and core cells) stalls plain gradient
    steps entirely.  Stagnation above tolerance is flagged in diagnostics,
    not raised.
    """
    from scipy.linalg import solve_banded
    from scipy.optimize import minimize_scalar

    kappa, dmass = _assemble(ps, mesh)
    p = ps.p
    u = envelope_hat(ps, mesh) if u0 is None else np.asarray(u0, dtype=float)
    u = np.maximum(u, 0.0)
    u = u / np.sum(dmass * u**p) ** (1.0 / p)
    q, g = _quotient_grad(p, kappa, dmass, u)
    history = [q]
    stagnated = False
    it = 0
    for it in range(1, maxiter + 1):
        du = np.abs(np.diff(u, prepend=0.0, append=0.0))
        floor = 1e-8 * max(float(np.max(du)), 1e-300)
        m = np.maximum(du, floor) ** (p - 2.0) * kappa
        ab = np.zeros((3, mesh.n))
        ab[0, 1:] = -m[1:-1]
        ab[1, :] = m[:-1] + m[1:]
        ab[2, :-1] = -m[1:-1]
        d = solve_banded((1, 1), ab, g)

        def phi(t):
            trial = np.maximum(u - t * d, 0.0)
            nrm = np.sum(dmass * trial**p)
            if nrm <= 0.0:
                return INF
            return _quotient(p, kappa, dmass, trial / nrm ** (1.0 / p))

        t_hi = 4.0
        res = minimize_scalar(phi, bounds=(0.0, t_hi), method="bounded",
                              options={"xatol": 1e-12})
        if not (res.fun < q * (1.0 - 1e-15)):
            break
        u = np.maximum(u - res.x * d, 0.0)
        u = u / np.sum(dmass * u**p) ** (1.0 / p)
        q, g = _quotient_grad(p, kappa, dmass, u)
        history.append(q)
        if len(history) > 4 and abs(history[-4] - q) <= qtol * q:
            break
    else:
        stagnated = True
    scale = float(np.max(u))
    u_n = u / scale
    nz = u_n[np.abs(u_n) > 0]
    zero_count = int(np.sum(np.diff(np.sign(nz)) != 0))
    diagnostics = {
        "iterations": it,
        "stagnated": stagnated,
        "quotient_history_last": history[-1],
    }
    return Eigenpair(q, mesh, u_n, flux(ps, mesh, u_n), zero_count, diagnostics)


# ---------------------------------------------------------------------------
# flux and the fixed-point boundary map
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


def fixed_point_left(ps: ProblemSpec, lam, a_tilde, u_seed=None, iters=30,
                     nodes=None, per_decade=16):
    """Iterate the left-boundary integral representation

        T[u](r) = lam^{1/(p-1)} ∫_{R1}^r rho^{1-p'}(t)
                  ( ∫_t^{a~} sigma u^{p-1} )^{1/(p-1)} dt

    on (R1, a_tilde].  Positively 1-homogeneous, so at the correct lam the
    principal shape is a genuine fixed point and no renormalization is needed;
    iterate norms growing beyond 1e12 of the seed raise SolverError.

    Returns (nodes, u_iterate).
    """
    if nodes is None:
        span = a_tilde - ps.R1
        depth = int(10 * per_decade)
        d = span * 10.0 ** (-np.arange(depth + 1)[::-1] / per_decade)
        nodes = ps.R1 + np.unique(d)
    nodes = np.asarray(nodes, dtype=float)
    if u_seed is None:
        u = np.ones_like(nodes)
    elif callable(u_seed):
        u = np.asarray(u_seed(nodes), dtype=float)
    else:
        u = np.asarray(u_seed, dtype=float)
    if np.any(u < 0):
        raise SolverError("seed must be nonnegative")
    edges = np.concatenate([[ps.R1], nodes])
    w_rhoc = quad.interval_integrals(ps.rho_conj_model, edges)
    s_sig = quad.interval_integrals(ps.sigma_model, edges[1:])
    # first-cell sigma mass against the linear ramp ((r-R1)/h)^{p-1}: exact in
    # the model algebra (handles sigma blowing up at R1 like (r-R1)^{-1})
    from dataclasses import replace as _replace

    p0 = ps.sigma_model.pieces[0]
    prod0 = _replace(p0, a=p0.a + ps.p - 1.0)
    v0, _, _ = quad._piece_partial(prod0, ps.R1, ps.R1, nodes[0])
    s0_ramp = v0 / (nodes[0] - ps.R1) ** (ps.p - 1.0)
    pm1 = ps.p - 1.0
    expo = 1.0 / pm1
    scale0 = float(np.max(u))
    for _ in range(iters):
        up = u**pm1
        cell = s_sig * 0.5 * (up[1:] + up[:-1])
        first = s0_ramp * up[0]
        j_nodes = np.concatenate([np.cumsum(cell[::-1])[::-1], [0.0]])
        j_mid = np.concatenate([[j_nodes[0] + 0.5 * first],
                                0.5 * (j_nodes[1:] + j_nodes[:-1])])
        u = lam**expo * np.cumsum(w_rhoc * j_mid**expo)
        mx = float(np.max(u))
        if not math.isfinite(mx) or mx > 1e12 * scale0:
            raise SolverError("fixed-point iterates diverge (norm growth cap hit)")
    return nodes, u
