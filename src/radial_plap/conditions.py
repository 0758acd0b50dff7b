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
power at infinity), so verdicts are decided in the endpoint-magnitude algebra
of :mod:`radial_plap.weights` and the numerics only supply witness values.
Near R1 these work in the offset t = r - R1: P, the integrals of P σ and
W1's I1, the envelopes' crossing and the left probes.
Every verdict is ``holds`` or ``fails``.  A witness integral whose
quadrature did not converge is left out of ``witnesses`` and named in the
notes instead, like a probe that overflowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature as quad
from .weights import (
    INFINITY,
    LEFT_R1,
    RIGHT_R2,
    ZERO,
    ProblemSpec,
    eps_infimum,
    far_integral,
    integrable,
    limit,
    magnitude,
    mul,
    near_integral,
    right_end,
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


#: the (A_eps) probes: distances span * _PROBE_RATIO**k, k = 1.._PROBE_DEPTH
_PROBE_DEPTH, _PROBE_RATIO = 60, 0.5


def probe_grid(span, anchor=0.0):
    """Distances accumulating geometrically at an endpoint (deepest last),
    floored at a few ulps of ``anchor`` so ``anchor - d`` never rounds onto
    it; offsets from R1 (anchor 0) need no floor."""
    d = span * _PROBE_RATIO ** np.arange(1, _PROBE_DEPTH + 1)
    floor = 64.0 * np.finfo(float).eps * abs(anchor)
    return np.unique(np.maximum(d, floor))[::-1]


# ---------------------------------------------------------------------------
# P(r) and condition (A)
# ---------------------------------------------------------------------------


def capacity_P(ps: ProblemSpec, r):
    """P(r) at the radii ``r``: :func:`_capacity_at` their offsets from R1."""
    return _capacity_at(ps, np.subtract(r, ps.R1))


def _capacity_at(ps, t):
    """P at the offsets ``t = r - R1``: min of the two one-sided
    (p-1)-powers of ∫ ρ^{1-p'}; +inf only where both diverge."""
    return np.minimum(ps.phi_rho_conj.at(t), ps.psi_rho_conj.at(t)) ** (ps.p - 1.0)


def _p_sigma_converges(ps, end):
    """Whether ∫ P σ converges at ``end``: P^(1/(p-1)) is the near-end
    integral of ρ^{1-p'} where that converges, else its far-side one."""
    rhoc = magnitude(ps.rho_conj_model, end)
    env = near_integral(rhoc, end) or far_integral(rhoc, end)
    psig = mul(magnitude(ps.sigma_model, end), env, ps.p - 1.0)
    return near_integral(psig, end) is not None


#: the crossing locator: _CROSS_GRID nodes on [_CROSS_S_MIN, _CROSS_S_MAX] in
#: s, then _CROSS_ROUNDS rounds of _CROSS_SPLIT: 284 envelope points in all
_CROSS_S_MIN, _CROSS_S_MAX, _CROSS_GRID, _CROSS_ROUNDS, _CROSS_SPLIT = -700.0, 36.0, 32, 4, 63


def _crossing(ps):
    """The offset t* = r* - R1 where Φ = Ψ, at which P kinks; None when
    either envelope diverges (P is then one smooth envelope) or t* lies off
    the grid.

    Φ - Ψ increases, so its sign change is bracketed on a grid evenly spaced
    in s = log(t/max(R1, 1)) (exterior) or logit(t/(R2 - R1)) (annuli), from
    e^-700 of the span at R1, far below any radius, to e^-36 at R2.  Each
    round, one array query per envelope, splits the bracket into 64; the
    secant in s through the last one gives t*.
    """
    phi, psi = ps.phi_rho_conj, ps.psi_rho_conj
    if phi.divergent or psi.divergent:
        return None
    if math.isfinite(ps.R2):
        offset = lambda s: (ps.R2 - ps.R1) / (1.0 + np.exp(-s))
    else:
        offset = lambda s: max(ps.R1, 1.0) * np.exp(s)
    s = np.linspace(_CROSS_S_MIN, _CROSS_S_MAX, _CROSS_GRID)
    t = offset(s)
    h = phi.at(t) - psi.at(t)
    k = int(np.argmax(h > 0.0))  # the first node past the crossing
    if k == 0:
        return None  # no node past it, or none before it
    for _ in range(_CROSS_ROUNDS):
        s_in = np.linspace(s[k - 1], s[k], _CROSS_SPLIT + 2)[1:-1]
        t_in = offset(s_in)
        s = np.concatenate([s[k - 1:k], s_in, s[k:k + 1]])
        h = np.concatenate([h[k - 1:k], phi.at(t_in) - psi.at(t_in), h[k:k + 1]])
        k = int(np.argmax(h > 0.0))
    return float(offset(s[k - 1] + (s[k] - s[k - 1]) * h[k - 1] / (h[k - 1] - h[k])))


def integral_P_sigma(ps: ProblemSpec, tol=1e-8):
    """Numeric value of ∫_{R1}^{R2} P σ dr, assuming convergence was certified.

    One :func:`~radial_plap.quadrature.integrate` call of P times σ over
    the offsets t ∈ (0, R2 - R1), whose shells toward R1 are exact: P is the
    pointwise min of the two envelopes, so a divergent side (+inf) drops out
    by itself.  The junctions of v and w and the crossing t*
    (:func:`_crossing`) are its breakpoints, so every jump and kink of P σ
    sits on a panel edge.
    """
    t_star = _crossing(ps)
    return quad.integrate(
        lambda t: _capacity_at(ps, t) * ps.sigma_model.at(t), 0.0, ps.R2 - ps.R1, tol=tol,
        points=[x - ps.R1 for x in ps.junctions] + ([] if t_star is None else [t_star]),
    )


def check_A(ps: ProblemSpec, tol=1e-8) -> ConditionReport:
    """Condition (A): P < ∞ on (R1, R2) and ∫ P σ dr < ∞.

    The witness ``integral_P_sigma`` is the p-th power of the embedding
    constant; ``embedding_constant`` and ``quadrature_error`` are reported
    alongside.  All three are left out, and the notes name the witness, when
    its quadrature did not converge: the verdict rests on the exponent tests.
    """
    rhoc = ps.rho_conj_model
    li = integrable(rhoc, LEFT_R1)
    ti = integrable(rhoc, right_end(ps.R2))  # always at a finite R2
    witnesses = {
        "rho_conj_left_integrable": float(li),
        "rho_conj_right_integrable": float(ti),
    }
    if not (li or ti):
        return ConditionReport(
            "A", FAILS, witnesses,
            "(i) fails: both one-sided integrals of rho^(1-p') diverge, so P = inf",
        )
    left_ok = _p_sigma_converges(ps, LEFT_R1)
    tail_ok = _p_sigma_converges(ps, right_end(ps.R2))
    witnesses["P_sigma_left_convergent"] = float(left_ok)
    witnesses["P_sigma_right_convergent"] = float(tail_ok)
    if not (left_ok and tail_ok):
        side = "R1" if not left_ok else "R2"
        witnesses["integral_P_sigma"] = INF
        return ConditionReport(
            "A", FAILS, witnesses,
            f"(ii) fails: ∫ P σ diverges at the {side} end (exponent test)",
        )
    # the exponent tests above certify ∫ P σ < ∞; the integral is a witness
    res = integral_P_sigma(ps, tol=tol)
    failed = _witness(witnesses, "integral_P_sigma", res)
    if not failed:
        witnesses["quadrature_error"] = res.abs_error_estimate
        witnesses["embedding_constant"] = res.value ** (1.0 / ps.p)
    return ConditionReport("A", HOLDS, witnesses, _failed_probes("", failed))


# ---------------------------------------------------------------------------
# (A_eps_L) and (A_eps_R)
# ---------------------------------------------------------------------------


def _default_xi(ps, end):
    """Midway from a finite ``end`` to the nearest junction of ρ^{1-p'}
    (or to the other end); at infinity, past the last junction."""
    pieces = ps.rho_conj_model.pieces
    if end == INFINITY:
        return max(pieces[-1].lo + 1.0, 2.0 * max(ps.R1, 1.0))
    if end == LEFT_R1:
        edge = min(pieces[0].hi, ps.R2)
        return 0.5 * (ps.R1 + (edge if math.isfinite(edge) else ps.R1 + 2.0))
    return 0.5 * (max(pieces[-1].lo, ps.R1) + ps.R2)


def _search_eps(ps, end):
    """Infimum ε in [0, p-1) keeping (∫ σ away from ``end``) times
    (∫ ρ^{1-p'} up to ``end``)^ε bounded there; None if none exists.

    0.0 means every ε in (0, p-1) works (the infimum itself need not).
    """
    grow = far_integral(magnitude(ps.sigma_model, end), end)
    decay = near_integral(magnitude(ps.rho_conj_model, end), end)
    return eps_infimum(grow, decay, ps.p - 1.0)


def _witness(witnesses, name, res):
    """Record the integral ``res`` as the witness ``name`` if it converged;
    return the failed names for :func:`_failed_probes`: ``[name]`` or ``[]``."""
    if res.converged:
        witnesses[name] = res.value
        return []
    return [name]


def _failed_probes(notes, failed):
    """``notes``, plus a note naming the ``failed`` numeric witnesses."""
    if not failed:
        return notes
    note = (f"numeric witness {', '.join(failed)} failed; verdict from the "
            "exponent certificate")
    return f"{notes}; {note}" if notes else note


def _check_A_eps(ps, end, xi, eps):
    """(A_eps) at ``end``: ρ^{1-p'} integrable between ``end`` and ξ, and
    F = (∫ σ from r out to ξ)(∫ ρ^{1-p'} from ``end`` to r)^ε bounded."""
    left = end == LEFT_R1
    cid = "A_eps_L" if left else "A_eps_R"
    xi = _default_xi(ps, end) if xi is None else xi
    witnesses = {"xi": xi}
    if not integrable(ps.rho_conj_model, end):
        return ConditionReport(
            cid, FAILS, witnesses,
            f"precondition fails: rho^(1-p') not integrable near {'R1' if left else 'R2'}",
        )
    eps_inf = _search_eps(ps, end)
    witnesses["eps_infimum"] = INF if eps_inf is None else eps_inf
    if eps is None:
        if eps_inf is None:
            heavy = "mass near R1" if left else "tail"
            return ConditionReport(
                cid, FAILS, witnesses,
                f"no admissible ε in (0, p-1): the σ {heavy} is too heavy",
            )
        eps = 0.5 * (eps_inf + ps.p - 1.0)
    witnesses["eps"] = eps
    if not (0.0 < eps < ps.p - 1.0):
        return ConditionReport(cid, FAILS, witnesses, f"ε={eps} outside (0, p-1)")
    if left:  # the probes x: offsets from R1 here, radii at the right end
        x = probe_grid(xi - ps.R1)
        sig = quad.RightCumulative(ps.sigma_model.restricted(ps.R1, xi)).at
        rhoc = ps.phi_rho_conj.at
    else:
        x = (ps.R2 - probe_grid(ps.R2 - xi, anchor=ps.R2) if end == RIGHT_R2
             else xi * 2.0 ** np.arange(1, 40))
        sig = quad.LeftCumulative(ps.sigma_model.restricted(xi, ps.R2))
        rhoc = ps.psi_rho_conj
    F = sig(x) * rhoc(x) ** eps
    witnesses["sup_F"] = float(np.max(F))
    witnesses["argmax_r"] = float(x[int(np.argmax(F))] + (ps.R1 if left else 0.0))
    if eps_inf is not None and eps >= eps_inf - 1e-12:
        verdict, notes = HOLDS, ""
    elif eps_inf is not None:
        verdict, notes = FAILS, f"ε={eps} below the exponent-test infimum {eps_inf}"
    else:
        verdict, notes = FAILS, "probe sup grows without analytic bound"
    # both integrals of F are finite here (the precondition), so a NaN or
    # inf sup_F is a quadrature that overflowed or was refused
    failed = [] if math.isfinite(witnesses["sup_F"]) else ["sup_F"]
    return ConditionReport(cid, verdict, witnesses, _failed_probes(notes, failed))


def search_eps_L(ps: ProblemSpec):
    """Infimum ε making (A_eps_L) hold, from exponents; None if none."""
    return _search_eps(ps, LEFT_R1)


def check_A_eps_L(ps: ProblemSpec, xi=None, eps=None) -> ConditionReport:
    """(A_eps_L): ρ^{1-p'} ∈ L¹(R1, ξ) and (∫_r^ξ σ)(∫_{R1}^r ρ^{1-p'})^ε bounded."""
    return _check_A_eps(ps, LEFT_R1, xi, eps)


def search_eps_R(ps: ProblemSpec):
    """Infimum ε making (A_eps_R) hold, from exponents; None if none."""
    return _search_eps(ps, right_end(ps.R2))


def check_A_eps_R(ps: ProblemSpec, xi=None, eps=None) -> ConditionReport:
    """(A_eps_R): ρ^{1-p'} ∈ L¹(ξ, R2) and (∫_ξ^r σ)(∫_r^{R2} ρ^{1-p'})^ε bounded."""
    return _check_A_eps(ps, right_end(ps.R2), xi, eps)


# ---------------------------------------------------------------------------
# (OK)
# ---------------------------------------------------------------------------

def _one_sided(model, start, end):
    """Magnitude at ``end`` of the integral of ``model`` from ``start`` to r."""
    if start == end:
        return near_integral(magnitude(model, end), end)
    if not integrable(model, start):
        return None
    return far_integral(magnitude(model, end), end)


def _ok_product_limits(ps, sigma_first):
    """Endpoint limits of one (OK) alternative, decided from exponents.

    ``sigma_first=True``: (∫_{R1}^r σ)(∫_r^{R2} ρ')^{p-1}; the mirrored
    alternative otherwise.  Returns ('zero'|'finite'|'infinite') at R1, R2.
    """
    right = right_end(ps.R2)
    s_from, r_from = (LEFT_R1, right) if sigma_first else (right, LEFT_R1)
    return tuple(
        limit(mul(_one_sided(ps.sigma_model, s_from, end),
                  _one_sided(ps.rho_conj_model, r_from, end), ps.p - 1.0))
        for end in (LEFT_R1, right)
    )


def _ok_probe_values(ps):
    """Numeric values of both products at deep probe radii near each end,
    and the names of those that failed: NaN, or inf although neither of
    their integrals diverges (an overflowed or refused quadrature)."""
    pm1 = ps.p - 1.0
    span = (ps.R2 - ps.R1) if math.isfinite(ps.R2) else max(ps.R1, 1.0)
    t_lo = span * 2.0**-30  # the probes, as offsets from R1
    t_hi = span - t_lo if math.isfinite(ps.R2) else max(ps.R1, 1.0) * 2.0**20 - ps.R1
    alternatives = (("alt1", quad.LeftCumulative(ps.sigma_model), ps.psi_rho_conj),
                    ("alt2", quad.RightCumulative(ps.sigma_model), ps.phi_rho_conj))
    out, failed = {}, []
    for tag, t in (("R1", t_lo), ("R2", t_hi)):
        for alt, sig, rhoc in alternatives:
            value = float(sig.at(t)) * float(rhoc.at(t)) ** pm1
            out[f"{alt}_probe_{tag}"] = value
            if math.isnan(value) or (math.isinf(value) and not
                                     (sig.divergent or rhoc.divergent)):
                failed.append(f"{alt}_probe_{tag}")
    return out, failed


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
    probes, failed = _ok_probe_values(ps)
    witnesses.update(probes)
    ok1 = alt1 == (ZERO, ZERO)
    ok2 = alt2 == (ZERO, ZERO)
    if ok1 or ok2:
        verdict = HOLDS
        notes = f"{'first' if ok1 else 'second'} alternative passes"
    else:
        verdict = FAILS
        notes = "neither product alternative tends to 0 at both ends"
    return ConditionReport("OK", verdict, witnesses, _failed_probes(notes, failed))


# ---------------------------------------------------------------------------
# (W1) and (W2)
# ---------------------------------------------------------------------------


def _require_exterior(ps):
    if math.isfinite(ps.R2):
        raise ValueError("W1/W2 are exterior-domain conditions (R2 must be inf)")


def check_W1(ps: ProblemSpec) -> ConditionReport:
    """(W1): essinf v > 0 beyond some ξ, v^{-1/(p-1)} ∈ L¹(R, ξ), and the
    weighted integrability pair (p != N vs p == N) of w."""
    _require_exterior(ps)
    R, p, N = ps.R1, ps.p, ps.N
    v, w = ps.v, ps.w
    xi = _default_xi(ps, INFINITY)
    witnesses = {"xi": xi}
    if limit(magnitude(v, INFINITY)) == ZERO:
        return ConditionReport(
            "W1", FAILS, witnesses, "essinf of v near infinity is 0"
        )
    vinv = v.conj(p)
    a_v = magnitude(v, LEFT_R1)[0]
    if not a_v < p - 1.0:
        return ConditionReport(
            "W1", FAILS, witnesses,
            f"v^(-1/(p-1)) not integrable near R (v exponent {a_v} >= p-1)",
        )
    phi_vinv = quad.LeftCumulative(vinv.restricted(R, xi))
    witnesses["int_vinv_R_xi"] = phi_vinv.at(xi - R)
    # (∫_R^r v^(-1/(p-1)))^(p-1) ~ (r-R)^(p-1-a_v), formed without rounding
    # -1/(p-1) into the exponent
    inner = mul(magnitude(w, LEFT_R1), (p - 1.0 - a_v, 0.0, 0.0))
    if near_integral(inner, LEFT_R1) is None:
        witnesses["I1"] = INF
        return ConditionReport(
            "W1", FAILS, witnesses,
            "∫_R^ξ (∫_R^r v^(-1/(p-1)))^(p-1) w dr diverges at R (exponent test)",
        )
    # over the offsets t = r - R, so the shells toward R are exact
    f1 = lambda t: phi_vinv.at(t) ** (p - 1.0) * w.at(t)
    res1 = quad.integrate(f1, 0.0, xi - R, tol=1e-8, points=[x - R for x in ps.junctions])
    failed = _witness(witnesses, "I1", res1)
    if p != N:
        tail_model = w.restricted(xi, INF).times(b=p - 1.0)
        label = "∫_ξ^∞ r^(p-1) w dr"
    else:
        tail_model = w.restricted(xi, INF).times(b=N - 1.0, l=N - 1.0)
        label = "∫_ξ^∞ [r log r]^(N-1) w dr"
    tail = quad.RightCumulative(tail_model)
    witnesses["I2"] = tail.at(xi - R)
    if tail.divergent:
        return ConditionReport("W1", FAILS, witnesses, _failed_probes(f"{label} diverges", failed))
    notes = ""
    if all(pc.a == 0 and pc.b == 0 and pc.l == 0 for pc in v.pieces) and \
            not integrable(w, LEFT_R1):
        notes = (
            "constant v with heavy w near R: the global r^(p-1)-weighted "
            "integrability of the ADS-type special case fails, while (W1) holds"
        )
    return ConditionReport("W1", HOLDS, witnesses, _failed_probes(notes, failed))


def check_W2(ps: ProblemSpec) -> ConditionReport:
    """(W2): essinf v > 0 on (R, ξ), [r^{N-1} v]^{-1/(p-1)} ∈ L¹(ξ, ∞), and the
    (r-R)^{p-1}/envelope-weighted integrability pair of w."""
    _require_exterior(ps)
    R, p, N = ps.R1, ps.p, ps.N
    v, w = ps.v, ps.w
    xi = _default_xi(ps, LEFT_R1)
    witnesses = {"xi": xi}
    v_at_R = magnitude(v, LEFT_R1)
    if limit(v_at_R) == ZERO:
        return ConditionReport(
            "W2", FAILS, witnesses, f"v vanishes at R (exponent {v_at_R[0]} > 0)"
        )
    if not integrable(ps.rho_conj_model, INFINITY):
        return ConditionReport(
            "W2", FAILS, witnesses, "[r^(N-1) v]^(-1/(p-1)) not integrable at infinity"
        )
    witnesses["int_rho_conj_xi_inf"] = ps.psi_rho_conj(xi)
    m1 = w.restricted(R, xi).times(a=p - 1.0)
    phi1 = quad.LeftCumulative(m1)
    witnesses["I1"] = phi1.at(xi - R)
    if phi1.divergent:
        return ConditionReport(
            "W2", FAILS, witnesses, "∫_R^ξ (r-R)^(p-1) w dr diverges"
        )
    if not _p_sigma_converges(ps, INFINITY):
        witnesses["I2"] = INF
        return ConditionReport(
            "W2", FAILS, witnesses,
            "∫_ξ^∞ (∫_r^∞ ρ^(1-p'))^(p-1) σ dr diverges (exponent test)",
        )
    psi = ps.psi_rho_conj
    sig = ps.sigma_model
    f2 = lambda r: psi(r) ** (p - 1.0) * sig(r)
    res2 = quad.integrate(f2, xi, INF, tol=1e-8, points=ps.junctions)
    failed = _witness(witnesses, "I2", res2)
    return ConditionReport("W2", HOLDS, witnesses, _failed_probes("", failed))


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
