"""Checkable weight hypotheses with numeric certificates.

Every hypothesis the theory states on the weight pair (v, w) is implemented
as a predicate over :class:`~radial_plap.weights.ProblemSpec` returning a
:class:`ConditionReport`:

* ``A``       -- P(r) finite everywhere and ∫ P σ dr < ∞, with
                 P(r) = min( (∫_{R1}^r ρ^{1-p'})^{p-1}, (∫_r^{R2} ρ^{1-p'})^{p-1} );
* ``A_eps_L`` -- ∃ ξ, ε ∈ (0, p-1), C: (∫_r^ξ σ)(∫_{R1}^r ρ^{1-p'})^ε < C on (R1, ξ);
* ``A_eps_R`` -- the mirrored bound on (ξ, R2);
* ``OK``      -- one of the two one-sided products tends to 0 at both endpoints;
* ``W1``/``W2`` -- the exterior-domain integrability pairs.

Within the power-log family all endpoint behavior is a power (times a log
power at infinity), so verdicts are decided by exponent arithmetic and the
numerics only supply witness values.  ``inconclusive`` remains a first-class
verdict for the composite integrals whose convergence the generic quadrature
cannot certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature as quad
from .weights import (
    INFINITY,
    LEFT_R1,
    ProblemSpec,
    PowerLogPiece,
    WeightModel,
    local_exponents,
)

INF = math.inf

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


@dataclass
class ConditionReport:
    condition_id: str
    verdict: str
    witnesses: dict = field(default_factory=dict)
    notes: str = ""

    @property
    def holds(self):
        return self.verdict == HOLDS

    def to_dict(self):
        return {
            "condition": self.condition_id,
            "verdict": self.verdict,
            "witnesses": dict(sorted(self.witnesses.items())),
            "notes": self.notes,
        }


def _left_exps(model):
    return local_exponents(model, LEFT_R1)


def _tail_exps(model):
    return local_exponents(model, INFINITY)


def probe_grid(span, depth=60, ratio=0.5, anchor=1.0):
    """Distances accumulating geometrically at an endpoint (deepest last).

    Distances are floored at a few ulps of the anchoring radius so that
    ``anchor + d`` never rounds onto the endpoint itself.
    """
    d = span * ratio ** np.arange(1, depth + 1)
    floor = 64.0 * np.finfo(float).eps * max(1.0, abs(anchor))
    return np.unique(np.maximum(d, floor))[::-1]


# ---------------------------------------------------------------------------
# P(r) and condition (A)
# ---------------------------------------------------------------------------


def capacity_P(ps: ProblemSpec, r):
    """P(r): min of the two one-sided (p-1)-powers of ∫ ρ^{1-p'}.

    Returns +inf only where both one-sided integrals diverge.
    """
    il = ps.phi_rho_conj(r)
    ir = ps.psi_rho_conj(r)
    m = np.minimum(il, ir)
    out = np.power(m, ps.p - 1.0, where=np.isfinite(m), out=np.asarray(m, dtype=float))
    return float(out) if np.isscalar(r) else out


def _p_branch_left(ps):
    """Local power of min(I_L, I_R) in (r - R1) as r -> R1+.

    Whether I_L -> 0 (integrable side) or I_R inherits the divergent part,
    the (r-R1)-power is (A+1) for rho-conj exponent A != -1; A == -1 gives a
    log factor, reported as power 0 with a log flag.
    """
    a, _ = _left_exps(ps.rho_conj_model)
    if a == -1.0:
        return 0.0, True
    return a + 1.0, False


def _psig_left_converges(ps):
    asig, _ = _left_exps(ps.sigma_model)
    power, logflag = _p_branch_left(ps)
    if logflag:
        # |log|^{p-1} times sigma: the log is subdominant to any power gap
        return asig > -1.0
    e = (ps.p - 1.0) * power + asig
    return e > -1.0


def _p_branch_tail(ps):
    """Tail behavior (power, logpower) of min(I_L, I_R)^(p-1)/(p-1)-root, i.e.
    of the governing one-sided integral of rho-conj at infinity."""
    E, Lam = _tail_exps(ps.rho_conj_model)
    if E != -1.0:
        return E + 1.0, Lam
    if Lam != -1.0:
        return 0.0, Lam + 1.0
    return 0.0, 0.0  # log log growth; subdominant to every log power


def _psig_tail_converges(ps):
    Es, Ls = _tail_exps(ps.sigma_model)
    pe, pl = _p_branch_tail(ps)
    te = (ps.p - 1.0) * pe + Es
    tl = (ps.p - 1.0) * pl + Ls
    if te < -1.0:
        return True
    if te > -1.0:
        return False
    return tl < -1.0


def _find_P_crossing(ps):
    """Radius where the two one-sided integrals of rho-conj cross."""
    phi, psi = ps.phi_rho_conj, ps.psi_rho_conj
    h = lambda r: phi(r) - psi(r)
    lo = ps.R1 + (1.0 if not math.isfinite(ps.R2) else (ps.R2 - ps.R1) / 2.0) * 0.5
    # bracket: h < 0 toward R1, h > 0 toward R2
    a = ps.R1 + (lo - ps.R1) * 1e-6
    while h(a) > 0.0 and a - ps.R1 > 1e-15 * max(1.0, ps.R1):
        a = ps.R1 + (a - ps.R1) * 0.25
    if math.isfinite(ps.R2):
        b = ps.R2 - (ps.R2 - lo) * 1e-6
        while h(b) < 0.0 and ps.R2 - b > 1e-15 * max(1.0, ps.R2):
            b = ps.R2 - (ps.R2 - b) * 0.25
    else:
        b = max(2.0 * ps.R1, ps.R1 + 1.0)
        for _ in range(200):
            if h(b) > 0.0:
                break
            b *= 2.0
    for _ in range(200):
        mid = 0.5 * (a + b)
        if h(mid) < 0.0:
            a = mid
        else:
            b = mid
        if b - a <= 1e-12 * max(1.0, abs(b)):
            break
    return 0.5 * (a + b)


def integral_P_sigma(ps: ProblemSpec, tol=1e-8):
    """Numeric value of ∫ P σ dr, assuming convergence was certified."""
    phi, psi = ps.phi_rho_conj, ps.psi_rho_conj
    sig = ps.sigma_model
    pm1 = ps.p - 1.0

    def f_left(r):
        return phi(r) ** pm1 * sig(r)

    def f_right(r):
        return psi(r) ** pm1 * sig(r)

    if phi.divergent:
        return quad.integrate(f_right, ps.R1, ps.R2, tol=tol)
    if psi.divergent:
        return quad.integrate(f_left, ps.R1, ps.R2, tol=tol)
    r_star = _find_P_crossing(ps)
    res1 = quad.integrate(f_left, ps.R1, r_star, tol=tol)
    res2 = quad.integrate(f_right, r_star, ps.R2, tol=tol)
    verdict = (
        quad.CONVERGED
        if res1.verdict == res2.verdict == quad.CONVERGED
        else quad.INCONCLUSIVE
    )
    return quad.IntegralResult(
        res1.value + res2.value,
        res1.abs_error_estimate + res2.abs_error_estimate,
        verdict,
        res1.evaluations + res2.evaluations,
    )


def check_A(ps: ProblemSpec, tol=1e-8) -> ConditionReport:
    """Condition (A): P < ∞ on (R1, R2) and ∫ P σ dr < ∞.

    The witness ``integral_P_sigma`` is the p-th power of the embedding
    constant; ``embedding_constant`` is reported alongside.
    """
    rhoc = ps.rho_conj_model
    li = quad.left_integrable(rhoc)
    ti = quad.tail_integrable(rhoc) if not math.isfinite(ps.R2) else True
    witnesses = {
        "rho_conj_left_integrable": float(li),
        "rho_conj_right_integrable": float(ti),
    }
    if not (li or ti):
        return ConditionReport(
            "A", FAILS, witnesses,
            "(i) fails: both one-sided integrals of rho^(1-p') diverge, so P = inf",
        )
    left_ok = _psig_left_converges(ps)
    tail_ok = True if math.isfinite(ps.R2) else _psig_tail_converges(ps)
    witnesses["P_sigma_left_convergent"] = float(left_ok)
    witnesses["P_sigma_right_convergent"] = float(tail_ok)
    if not (left_ok and tail_ok):
        side = "R1" if not left_ok else "R2"
        witnesses["integral_P_sigma"] = INF
        return ConditionReport(
            "A", FAILS, witnesses,
            f"(ii) fails: ∫ P σ diverges at the {side} end (exponent test)",
        )
    res = integral_P_sigma(ps, tol=tol)
    witnesses["integral_P_sigma"] = res.value
    witnesses["quadrature_error"] = res.abs_error_estimate
    witnesses["embedding_constant"] = res.value ** (1.0 / ps.p)
    notes = ""
    if res.verdict != quad.CONVERGED:
        # convergence is already certified by the exponent tests; only the
        # witness value's accuracy is degraded (near-critical endpoint)
        notes = "witness integral not certified at the requested tolerance"
    return ConditionReport("A", HOLDS, witnesses, notes)


# ---------------------------------------------------------------------------
# (A_eps_L) and (A_eps_R)
# ---------------------------------------------------------------------------


def _default_xi_left(ps):
    hi0 = ps.rho_conj_model.pieces[0].hi
    if not math.isfinite(hi0):
        hi0 = ps.R1 + 2.0 if not math.isfinite(ps.R2) else ps.R2
    return 0.5 * (ps.R1 + min(hi0, ps.R2 if math.isfinite(ps.R2) else hi0))

def _default_xi_right(ps):
    lo_last = ps.rho_conj_model.pieces[-1].lo
    if math.isfinite(ps.R2):
        return 0.5 * (max(lo_last, ps.R1) + ps.R2)
    return max(lo_last + 1.0, 2.0 * max(ps.R1, 1.0))


def search_eps_L(ps: ProblemSpec, xi=None):
    """Infimum ε in [0, p-1) making (A_eps_L) hold, from exponents; None if none.

    0.0 means every ε in (0, p-1) works (the infimum itself need not).
    """
    A, _ = _left_exps(ps.rho_conj_model)
    if A <= -1.0:
        return None
    asig, _ = _left_exps(ps.sigma_model)
    if asig >= -1.0:
        return 0.0
    crit = (-asig - 1.0) / (A + 1.0)
    return crit if crit < ps.p - 1.0 else None


def check_A_eps_L(ps: ProblemSpec, xi=None, eps=None) -> ConditionReport:
    """(A_eps_L): ρ^{1-p'} ∈ L¹(R1, ξ) and (∫_r^ξ σ)(∫_{R1}^r ρ^{1-p'})^ε bounded."""
    xi = _default_xi_left(ps) if xi is None else xi
    witnesses = {"xi": xi}
    if not quad.left_integrable(ps.rho_conj_model):
        return ConditionReport(
            "A_eps_L", FAILS, witnesses,
            "precondition fails: rho^(1-p') not integrable near R1",
        )
    eps_inf = search_eps_L(ps, xi)
    witnesses["eps_infimum"] = INF if eps_inf is None else eps_inf
    if eps is None:
        if eps_inf is None:
            return ConditionReport(
                "A_eps_L", FAILS, witnesses,
                "no admissible ε in (0, p-1): the σ mass near R1 is too heavy",
            )
        eps = 0.5 * (eps_inf + ps.p - 1.0)
    witnesses["eps"] = eps
    if not (0.0 < eps < ps.p - 1.0):
        return ConditionReport(
            "A_eps_L", FAILS, witnesses, f"ε={eps} outside (0, p-1)"
        )
    analytic_ok = eps_inf is not None and eps >= eps_inf - 1e-12
    phi = ps.phi_rho_conj
    psi_sig = quad.RightCumulative(ps.sigma_model.restricted(ps.R1, xi))
    rs = ps.R1 + probe_grid(xi - ps.R1, anchor=ps.R1)
    F = np.array([psi_sig(r) * phi(r) ** eps for r in rs])
    witnesses["sup_F"] = float(np.max(F))
    witnesses["argmax_r"] = float(rs[int(np.argmax(F))])
    if analytic_ok:
        return ConditionReport("A_eps_L", HOLDS, witnesses)
    if eps_inf is not None:
        return ConditionReport(
            "A_eps_L", FAILS, witnesses,
            f"ε={eps} below the exponent-test infimum {eps_inf}",
        )
    return ConditionReport(
        "A_eps_L", FAILS, witnesses, "probe sup grows without analytic bound"
    )


def search_eps_R(ps: ProblemSpec, xi=None):
    """Infimum ε in [0, p-1) making (A_eps_R) hold; None if none exists."""
    rhoc = ps.rho_conj_model
    if math.isfinite(ps.R2):
        return 0.0  # both factors bounded on (ξ, R2) for this family
    if not quad.tail_integrable(rhoc):
        return None
    if quad.tail_integrable(ps.sigma_model):
        return 0.0
    E, Lam = _tail_exps(rhoc)
    Es, Ls = _tail_exps(ps.sigma_model)
    if E < -1.0:
        crit = (Es + 1.0) / (-(E + 1.0))
        if Es == -1.0:
            # σ integral grows like a log power; any positive power beats it
            return 0.0
    else:
        # E == -1, Lam < -1: the ρ' integral decays only logarithmically
        if Es + 1.0 > 0.0:
            return None
        crit = (Ls + 1.0) / (-(Lam + 1.0))
    return crit if crit < ps.p - 1.0 else None


def check_A_eps_R(ps: ProblemSpec, xi=None, eps=None) -> ConditionReport:
    """(A_eps_R): ρ^{1-p'} ∈ L¹(ξ, R2) and (∫_ξ^r σ)(∫_r^{R2} ρ^{1-p'})^ε bounded."""
    xi = _default_xi_right(ps) if xi is None else xi
    witnesses = {"xi": xi}
    rhoc = ps.rho_conj_model
    integrable = (
        True if math.isfinite(ps.R2) else quad.tail_integrable(rhoc)
    )
    if not integrable:
        return ConditionReport(
            "A_eps_R", FAILS, witnesses,
            "precondition fails: rho^(1-p') not integrable near R2",
        )
    eps_inf = search_eps_R(ps, xi)
    witnesses["eps_infimum"] = INF if eps_inf is None else eps_inf
    if eps is None:
        if eps_inf is None:
            return ConditionReport(
                "A_eps_R", FAILS, witnesses,
                "no admissible ε in (0, p-1): the σ tail is too heavy",
            )
        eps = 0.5 * (eps_inf + ps.p - 1.0)
    witnesses["eps"] = eps
    if not (0.0 < eps < ps.p - 1.0):
        return ConditionReport(
            "A_eps_R", FAILS, witnesses, f"ε={eps} outside (0, p-1)"
        )
    analytic_ok = eps_inf is not None and eps >= eps_inf - 1e-12
    psi = ps.psi_rho_conj
    phi_sig = quad.LeftCumulative(ps.sigma_model.restricted(xi, ps.R2))
    if math.isfinite(ps.R2):
        rs = ps.R2 - probe_grid(ps.R2 - xi, anchor=ps.R2)
    else:
        rs = xi * 2.0 ** np.arange(1, 40)
    F = np.array([phi_sig(r) * psi(r) ** eps for r in rs])
    witnesses["sup_F"] = float(np.max(F))
    witnesses["argmax_r"] = float(rs[int(np.argmax(F))])
    if analytic_ok:
        return ConditionReport("A_eps_R", HOLDS, witnesses)
    if eps_inf is not None:
        return ConditionReport(
            "A_eps_R", FAILS, witnesses,
            f"ε={eps} below the exponent-test infimum {eps_inf}",
        )
    return ConditionReport(
        "A_eps_R", FAILS, witnesses, "probe sup grows without analytic bound"
    )


# ---------------------------------------------------------------------------
# (OK)
# ---------------------------------------------------------------------------

_ZERO, _FINITE, _INFINITE = "zero", "finite", "infinite"

#: sentinel magnitude for an integral that is infinite at every r
_IDENT_INF = None


def _classify_at_finite(mag):
    """Limit of d**power * |log d|**logpower as the distance d -> 0."""
    if mag is _IDENT_INF:
        return _INFINITE
    power, logpower = mag
    if power > 0.0 or (power == 0.0 and logpower < 0.0):
        return _ZERO
    if power < 0.0 or (power == 0.0 and logpower > 0.0):
        return _INFINITE
    return _FINITE


def _classify_at_infinity(mag):
    """Limit of r**power * (log r)**logpower as r -> inf."""
    if mag is _IDENT_INF:
        return _INFINITE
    power, logpower = mag
    if power < 0.0 or (power == 0.0 and logpower < 0.0):
        return _ZERO
    if power > 0.0 or (power == 0.0 and logpower > 0.0):
        return _INFINITE
    return _FINITE


def _mul_mag(m1, m2, scale2=1.0):
    if m1 is _IDENT_INF or m2 is _IDENT_INF:
        return _IDENT_INF
    return (m1[0] + scale2 * m2[0], m1[1] + scale2 * m2[1])


def _from_left_at_R1(model):
    """∫_{R1}^r near R1 in powers of d = r - R1 (ident-inf if divergent there)."""
    if not quad.left_integrable(model):
        return _IDENT_INF
    a, _ = _left_exps(model)
    return (a + 1.0, 0.0)


def _to_right_at_R1(model, right_integrable):
    """∫_r^{R2} near R1: finite total, or the left singularity's blow-up."""
    if not right_integrable:
        return _IDENT_INF
    if quad.left_integrable(model):
        return (0.0, 0.0)
    a, _ = _left_exps(model)
    if a == -1.0:
        return (0.0, 1.0)
    return (a + 1.0, 0.0)


def _from_left_at_R2fin(model):
    """∫_{R1}^r near a finite R2: tends to the total (or is identically inf)."""
    return (0.0, 0.0) if quad.left_integrable(model) else _IDENT_INF


def _from_left_at_inf(model):
    """∫_{R1}^r as r -> inf, in powers of r."""
    if not quad.left_integrable(model):
        return _IDENT_INF
    if quad.tail_integrable(model):
        return (0.0, 0.0)
    e, l = _tail_exps(model)
    if e == -1.0:
        if l == -1.0:
            return (0.0, 0.25)  # log log growth: unbounded, below any log power
        return (0.0, l + 1.0)
    return (e + 1.0, l)


def _to_right_tail(model):
    """∫_r^inf as r -> inf, in powers of r (ident-inf if the tail diverges)."""
    if not quad.tail_integrable(model):
        return _IDENT_INF
    e, l = _tail_exps(model)
    if e == -1.0:
        return (0.0, l + 1.0)
    return (e + 1.0, l)


def _ok_product_limits(ps, sigma_first):
    """Endpoint limits of one (OK) alternative, decided from exponents.

    ``sigma_first=True``: (∫_{R1}^r σ)(∫_r^{R2} ρ')^{p-1}; the mirrored
    alternative otherwise.  Returns ('zero'|'finite'|'infinite') at R1, R2.
    """
    pm1 = ps.p - 1.0
    sig, rhoc = ps.sigma_model, ps.rho_conj_model
    finite2 = math.isfinite(ps.R2)
    rc_right_ok = True if finite2 else quad.tail_integrable(rhoc)
    sig_right_ok = True if finite2 else quad.tail_integrable(sig)

    if sigma_first:
        at_R1 = _classify_at_finite(
            _mul_mag(_from_left_at_R1(sig), _to_right_at_R1(rhoc, rc_right_ok), pm1)
        )
        if finite2:
            # σ total finite needed; then (∫_r^{R2} ρ')^{p-1} ~ d^{p-1} -> 0
            mag = _mul_mag(_from_left_at_R2fin(sig), (1.0, 0.0), pm1)
            at_R2 = _classify_at_finite(mag)
        else:
            at_R2 = _classify_at_infinity(
                _mul_mag(_from_left_at_inf(sig), _to_right_tail(rhoc), pm1)
            )
        return at_R1, at_R2

    at_R1 = _classify_at_finite(
        _mul_mag(_to_right_at_R1(sig, sig_right_ok), _from_left_at_R1(rhoc), pm1)
    )
    if finite2:
        mag = _mul_mag((1.0, 0.0), _from_left_at_R2fin(rhoc), pm1)
        at_R2 = _classify_at_finite(mag)
    else:
        at_R2 = _classify_at_infinity(
            _mul_mag(_to_right_tail(sig), _from_left_at_inf(rhoc), pm1)
        )
    return at_R1, at_R2


def _ok_probe_values(ps):
    """Numeric values of both products at deep probe radii near each end."""
    pm1 = ps.p - 1.0
    phi_s = quad.LeftCumulative(ps.sigma_model)
    psi_s = ps.psi_sigma
    phi_r = ps.phi_rho_conj
    psi_r = ps.psi_rho_conj
    span = (ps.R2 - ps.R1) if math.isfinite(ps.R2) else max(ps.R1, 1.0)
    r_lo = ps.R1 + span * 2.0**-30
    r_hi = (ps.R2 - span * 2.0**-30) if math.isfinite(ps.R2) \
        else max(ps.R1, 1.0) * 2.0**20
    out = {}
    for tag, r in (("R1", r_lo), ("R2", r_hi)):
        out[f"alt1_probe_{tag}"] = float(phi_s(r)) * float(psi_r(r)) ** pm1
        out[f"alt2_probe_{tag}"] = float(psi_s(r)) * float(phi_r(r)) ** pm1
    return out


def check_OK(ps: ProblemSpec) -> ConditionReport:
    """(OK) with a = R1, b = R2: one of the two product alternatives tends
    to 0 at both endpoints.  Verdicts come from exponent arithmetic; deep
    probe values of both products are reported as numeric witnesses."""
    alt1 = _ok_product_limits(ps, sigma_first=True)
    alt2 = _ok_product_limits(ps, sigma_first=False)
    witnesses = {
        "alt1_limit_R1": alt1[0],
        "alt1_limit_R2": alt1[1],
        "alt2_limit_R1": alt2[0],
        "alt2_limit_R2": alt2[1],
    }
    witnesses.update(_ok_probe_values(ps))
    ok1 = alt1 == (_ZERO, _ZERO)
    ok2 = alt2 == (_ZERO, _ZERO)
    if ok1 or ok2:
        which = "first" if ok1 else "second"
        return ConditionReport("OK", HOLDS, witnesses, f"{which} alternative passes")
    return ConditionReport(
        "OK", FAILS, witnesses, "neither product alternative tends to 0 at both ends"
    )


# ---------------------------------------------------------------------------
# (W1) and (W2)
# ---------------------------------------------------------------------------


def _require_exterior(ps):
    if math.isfinite(ps.R2):
        raise ValueError("W1/W2 are exterior-domain conditions (R2 must be inf)")


def _essinf_tail_positive(v):
    e, l = _tail_exps(v)
    return e > 0.0 or (e == 0.0 and l >= 0.0)


def check_W1(ps: ProblemSpec) -> ConditionReport:
    """(W1): essinf v > 0 beyond some ξ, v^{-1/(p-1)} ∈ L¹(R, ξ), and the
    weighted integrability pair (p != N vs p == N) of w."""
    _require_exterior(ps)
    R, p, N = ps.R1, ps.p, ps.N
    v, w = ps.v, ps.w
    lo_last = v.pieces[-1].lo
    xi = max(lo_last + 1.0, R + 1.0, 1.25)
    witnesses = {"xi": xi}
    if not _essinf_tail_positive(v):
        return ConditionReport(
            "W1", FAILS, witnesses, "essinf of v near infinity is 0"
        )
    vinv = v ** (-1.0 / (p - 1.0))
    a_v, _ = _left_exps(v)
    if not a_v < p - 1.0:
        return ConditionReport(
            "W1", FAILS, witnesses,
            f"v^(-1/(p-1)) not integrable near R (v exponent {a_v} >= p-1)",
        )
    phi_vinv = quad.LeftCumulative(vinv.restricted(R, xi))
    witnesses["int_vinv_R_xi"] = phi_vinv(xi * (1.0 - 1e-12))
    a_w, _ = _left_exps(w)
    inner_ok = (p - 1.0 - a_v) + a_w > -1.0
    if not inner_ok:
        witnesses["I1"] = INF
        return ConditionReport(
            "W1", FAILS, witnesses,
            "∫_R^ξ (∫_R^r v^(-1/(p-1)))^(p-1) w dr diverges at R (exponent test)",
        )
    f1 = lambda r: phi_vinv(r) ** (p - 1.0) * w(r)
    res1 = quad.integrate(f1, R, xi, tol=1e-8)
    witnesses["I1"] = res1.value
    if p != N:
        tail_model = w.restricted(xi, INF).shifted_r_power(p - 1.0)
        label = "∫_ξ^∞ r^(p-1) w dr"
    else:
        logf = WeightModel(
            (PowerLogPiece(lo=xi, hi=INF, c=1.0, b=float(N - 1), l=float(N - 1)),),
            ps.R1,
        )
        tail_model = w.restricted(xi, INF) * logf
        label = "∫_ξ^∞ [r log r]^(N-1) w dr"
    res2 = quad.integrate_exact_powerlog(tail_model, a=xi)
    witnesses["I2"] = res2.value
    if res2.diverges:
        return ConditionReport("W1", FAILS, witnesses, f"{label} diverges")
    notes = ""
    if all(pc.a == 0 and pc.b == 0 and pc.l == 0 for pc in v.pieces) and a_w <= -1.0:
        notes = (
            "constant v with heavy w near R: the global r^(p-1)-weighted "
            "integrability of the ADS-type special case fails, while (W1) holds"
        )
    if res1.verdict == quad.INCONCLUSIVE:
        # the exponent test above already certified I1 < inf
        notes = (notes + "; " if notes else "") + \
            "I1 witness not certified at the requested tolerance"
    return ConditionReport("W1", HOLDS, witnesses, notes)


def check_W2(ps: ProblemSpec) -> ConditionReport:
    """(W2): essinf v > 0 on (R, ξ), [r^{N-1} v]^{-1/(p-1)} ∈ L¹(ξ, ∞), and the
    (r-R)^{p-1}/envelope-weighted integrability pair of w."""
    _require_exterior(ps)
    R, p, N = ps.R1, ps.p, ps.N
    v, w = ps.v, ps.w
    hi0 = v.pieces[0].hi
    xi = 0.5 * (R + (hi0 if math.isfinite(hi0) else R + 2.0))
    witnesses = {"xi": xi}
    a_v, _ = _left_exps(v)
    if a_v > 0.0:
        return ConditionReport(
            "W2", FAILS, witnesses, f"v vanishes at R (exponent {a_v} > 0)"
        )
    rhoc = ps.rho_conj_model
    if not quad.tail_integrable(rhoc):
        return ConditionReport(
            "W2", FAILS, witnesses, "[r^(N-1) v]^(-1/(p-1)) not integrable at infinity"
        )
    witnesses["int_rho_conj_xi_inf"] = ps.psi_rho_conj(xi)
    shift = WeightModel((PowerLogPiece(lo=R, hi=xi, c=1.0, a=p - 1.0),), R)
    m1 = w.restricted(R, xi) * shift
    res1 = quad.integrate_exact_powerlog(m1)
    witnesses["I1"] = res1.value
    if res1.diverges:
        return ConditionReport(
            "W2", FAILS, witnesses, "∫_R^ξ (r-R)^(p-1) w dr diverges"
        )
    E, Lam = _tail_exps(rhoc)
    Es, Ls = _tail_exps(ps.sigma_model)
    pe = (E + 1.0) * (p - 1.0) + Es if E != -1.0 else Es
    pl = Lam * (p - 1.0) + Ls if E != -1.0 else (Lam + 1.0) * (p - 1.0) + Ls
    tail_ok = pe < -1.0 or (pe == -1.0 and pl < -1.0)
    if not tail_ok:
        witnesses["I2"] = INF
        return ConditionReport(
            "W2", FAILS, witnesses,
            "∫_ξ^∞ (∫_r^∞ ρ^(1-p'))^(p-1) σ dr diverges (exponent test)",
        )
    psi = ps.psi_rho_conj
    sig = ps.sigma_model
    f2 = lambda r: psi(r) ** (p - 1.0) * sig(r)
    res2 = quad.integrate(f2, xi, INF, tol=1e-8)
    witnesses["I2"] = res2.value
    notes = ""
    if res2.verdict == quad.INCONCLUSIVE:
        notes = "I2 witness not certified at the requested tolerance"
    return ConditionReport("W2", HOLDS, witnesses, notes)


def check_all(ps: ProblemSpec, xi=None, eps=None, tol=1e-8):
    """Run every applicable condition; W1/W2 only on exterior domains."""
    reports = [
        check_A(ps, tol=tol),
        check_A_eps_L(ps, xi=xi, eps=eps),
        check_A_eps_R(ps, xi=xi, eps=eps),
        check_OK(ps),
    ]
    if not math.isfinite(ps.R2):
        reports.append(check_W1(ps))
        reports.append(check_W2(ps))
    return reports
