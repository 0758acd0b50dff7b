import math

import mpmath as mp
import numpy as np
import pytest

from radial_plap import conditions as C
from radial_plap import quadrature as quad
from radial_plap.presets import get_preset, make_ex61, make_rmk22, make_rmk23
from radial_plap.weights import INF, LEFT_R1, PowerLogPiece, ProblemSpec, WeightModel


def exterior(v_pieces, w_pieces, N=3, p=2.0, R1=1.0):
    return ProblemSpec(
        N=N, p=p, R1=R1, R2=INF,
        v=WeightModel(tuple(v_pieces), R1), w=WeightModel(tuple(w_pieces), R1),
    )


def const_problem(N=1, p=2.0, R1=1.0, R2=2.0, v=1.0, w=1.0):
    return ProblemSpec(
        N=N, p=p, R1=R1, R2=R2,
        v=WeightModel.constant(v, R1, R2), w=WeightModel.constant(w, R1, R2),
    )


class TestCapacityP:
    def test_unit_interval_tent(self):
        ps = const_problem(R1=1.0, R2=2.0)
        for r in (1.1, 1.25, 1.5, 1.8):
            assert C.capacity_P(ps, r) == pytest.approx(min(r - 1.0, 2.0 - r), rel=1e-10)

    def test_degenerate_weight_vanishes_at_inner_boundary(self):
        ps = make_ex61(alpha=0.5)
        vals = [C.capacity_P(ps, 1.0 + d) for d in (1e-2, 1e-4, 1e-6)]
        assert all(np.isfinite(vals))
        assert vals[0] > vals[1] > vals[2] > 0.0
        # P ~ (integral of rho^{1-p'})^{p-1} -> 0 like (r-1)^{1/2}
        assert vals[2] / vals[1] == pytest.approx(1e-1, rel=0.1)

    def test_pure_power_tail_closed_form(self):
        # rho = r^{N-1}, p < N: P(r) = ((p-1)/(N-p))^{p-1} r^{-(N-p)} far out
        N, p = 4, 2.0
        ps = const_problem(N=N, p=p, R1=1.0, R2=INF)
        r = 60.0
        expect = ((p - 1.0) / (N - p)) ** (p - 1.0) * r ** -(N - p)
        assert C.capacity_P(ps, r) == pytest.approx(expect, rel=1e-8)


class TestCheckA:
    def test_trivial_quarter(self):
        rep = C.check_A(const_problem())
        assert rep.holds
        assert rep.witnesses["integral_P_sigma"] == pytest.approx(0.25, abs=1e-7)
        assert rep.witnesses["embedding_constant"] == pytest.approx(0.5, abs=1e-6)

    def test_three_piece_weights_hold(self):
        assert C.check_A(make_rmk23()).holds

    def test_critical_tail_fails(self):
        # w ~ r^{-p} at infinity makes the integrand decay exactly like 1/r
        p, N = 2.0, 3
        ps = exterior(
            [PowerLogPiece(1.0, INF, 1.0)],
            [PowerLogPiece(1.0, INF, 1.0, 0.0, -p)],
            N=N, p=p,
        )
        rep = C.check_A(ps)
        assert rep.verdict == C.FAILS
        assert rep.witnesses["integral_P_sigma"] == INF

    def test_tail_one_rounding_from_critical_reports_instead_of_raising(self):
        # rho^{1-p'} = (r-1)^-0.25 r^(-0.75 - 2^-52): its tail panels start
        # at the cap instead of being refused, so the witness is computed
        # and Ψ(2) is the incomplete beta B(1/2; 2^-52, 3/4)
        ps = exterior(
            [PowerLogPiece(1.0, INF, 1.0, 0.25, 0.75 + 2.0**-52)],
            [PowerLogPiece(1.0, INF, 1.0, 0.0, -4.0)],
            N=1, p=2.0,
        )
        rep = C.check_A(ps)
        assert rep.holds
        assert math.isfinite(rep.witnesses["integral_P_sigma"])
        assert rep.notes == ""
        with mp.workdps(40):
            ref = float(mp.betainc(mp.mpf(2) ** -52, 0.75, 0, 0.5))
        assert ps.psi_rho_conj(2.0) == pytest.approx(ref, rel=1e-15)

    def test_failed_witness_is_left_out_when_A_holds(self):
        # P σ = (r-1)^(-1 + 1e-12) near R1: the exponent test certifies
        # ∫ P σ < ∞, while shell sums that fall by 7e-13 a shell read as
        # divergence to the numeric witness
        ps = exterior(
            [PowerLogPiece(1.0, INF, 1.0)],
            [PowerLogPiece(1.0, 2.0, 1.0, -2.0 + 1e-12), PowerLogPiece(2.0, INF, 1.0, 0.0, -3.0)],
            N=1, p=2.0,
        )
        rep = C.check_A(ps)
        assert rep.holds
        for key in ("integral_P_sigma", "quadrature_error", "embedding_constant"):
            assert key not in rep.witnesses
        assert rep.notes == ("numeric witness integral_P_sigma failed; verdict from "
                             "the exponent certificate")
        assert all(math.isfinite(v) for v in rep.witnesses.values())

    def test_crossing_next_to_R1_keeps_its_witness(self):
        """rmk23_draws(4)[6]: r* - 1 = 2.0e-3, deep inside the first shell
        of the old layout, where P σ grew over six shells and read as
        divergence.  The shells now start below r*.  The reference is the
        unheaded oracle at depth 320; with its closed-form head,
        _mp_integral_P_sigma reads 47.34600372795 at depths 40 and 80."""
        ps = make_rmk23(p=1.9231501537872888, N=4, alpha=0.788095418494543,
                        beta=0.9834505692249531, alpha1=-1.0437843041694048,
                        beta1=-3.0113391380268055)
        rep = C.check_A(ps)
        assert rep.holds and rep.notes == ""
        ref = 47.346003727872166
        assert abs(rep.witnesses["integral_P_sigma"] - ref) <= 1e-8 * (1.0 + ref)


def _mp_piece_integral(c, a, b, x0, x1):
    """∫_{x0}^{x1} c x^a (1+x)^b dx in closed form (x = r - 1, b != -1):
    a power when a == 0, else x^(a+1)/(a+1) 2F1(-b, a+1; a+2; -x)."""
    if a == 0:
        return c * ((1 + x1) ** (b + 1) - (1 + x0) ** (b + 1)) / (b + 1)
    F = lambda x: x ** (a + 1) / (a + 1) * mp.hyp2f1(-b, a + 1, a + 2, -x)
    return c * (F(x1) - F(x0))


def _mp_integral_P_sigma(p, N, v, w, depth=40):
    """∫ min(Φ, Ψ)^(p-1) σ dr at 30 digits, with Φ = ∫_1^r ρ', Ψ = ∫_r^{R2} ρ'.

    ``v`` and ``w`` are pieces (lo, hi, c, a, b), c (r-1)^a r^b on (lo, hi)
    with R1 = 1 and a == 0 off the first piece, so ρ' = ρ^(1-p') and σ are
    pieces of the same form and Φ, Ψ are closed forms.  Works in x = r - 1,
    which keeps the distance to R1 exact.  Independent of the package:
    the head [0, x_h], x_h = min(2^-(depth-1), x*/4), is the closed form of
    the leading power of Φ^(p-1) σ there, C x^E with E = (a'+1)(p-1) + a_σ
    from the first pieces, whose relative error is O(x_h); ``mp.quad``
    takes the rest, split at 2^-k, the crossing x*, the piece edges and, on
    exterior domains, 2^k.  Without the head, a near-critical E leaves
    mass next to x = 0 that ``mp.quad`` truncates, and the value creeps
    with the depth.
    """
    with mp.workdps(30):
        q = -1 / (mp.mpf(p) - 1)
        rhoc = [(lo - 1, hi - 1, mp.mpf(c) ** q, q * a, q * (b + N - 1))
                for lo, hi, c, a, b in v]
        sig = [(lo - 1, hi - 1, mp.mpf(c), a, b + N - 1) for lo, hi, c, a, b in w]
        phi = lambda x: sum(_mp_piece_integral(c, a, b, lo, min(x, hi))
                            for lo, hi, c, a, b in rhoc if lo < x)
        psi = lambda x: sum(_mp_piece_integral(c, a, b, max(x, lo), hi)
                            for lo, hi, c, a, b in rhoc if hi > x)
        sigma = lambda x: next(c * x ** a * (1 + x) ** b
                               for lo, hi, c, a, b in sig if lo <= x <= hi)
        x2 = rhoc[-1][1]
        pts = ({mp.mpf(2) ** -k for k in range(1, depth)}
               | {pc[1] for pc in rhoc[:-1]}
               | ({mp.mpf(2) ** k for k in range(1, depth)} if x2 == mp.inf else set()))
        pts = [mp.mpf(0)] + sorted(pts) + [x2]
        h = lambda x: phi(x) - psi(x)
        i = next(i for i in range(1, len(pts)) if h(pts[i]) > 0)
        x_star = mp.findroot(h, (pts[i - 1], pts[i]), solver="anderson")
        f = lambda x: min(phi(x), psi(x)) ** (p - 1) * sigma(x)
        x_h = min(mp.mpf(2) ** -(depth - 1), x_star / 4)
        (_, _, c1, a1, _), (_, _, cs, a_s, _) = rhoc[0], sig[0]
        E = (a1 + 1) * (p - 1) + a_s
        head = (c1 / (a1 + 1)) ** (p - 1) * cs * x_h ** (E + 1) / (E + 1)
        return float(head + mp.quad(f, sorted({x_h, x_star, *(x for x in pts if x > x_h)})))


def _rmk23_pieces(alpha, beta, alpha1, beta1, **_):
    """(v, w) of :func:`make_rmk23` as oracle pieces."""
    return (
        [(1, 2, 1, alpha, 0), (2, 3, math.sqrt(3.0**beta), 0, 0), (3, mp.inf, 1, 0, beta)],
        [(1, 2, 1, alpha1, 0), (2, 3, math.sqrt(3.0**beta1), 0, 0), (3, mp.inf, 1, 0, beta1)],
    )


#: a criterion-5 draw with the crossing r* = 1.74962 just below the weight
#: jump at r = 2: without breakpoints the half-shell [1.5, 1.75] held the kink
#: of P 3.7e-4 inside its edge, behind its last GK21 node (6.1e-7 off)
RMK23_JUMP_DRAW = dict(
    p=2.9399779268548976, N=4, alpha=0.19522526895434522, beta=1.0331563882499935,
    alpha1=-1.7093400964255991, beta1=-3.086136768460523,
)


#: criterion-5 draws (``rmk23_draws(seed)[i]`` of the benchmark) with P σ
#: near-critical at R1: the (A) witness evaluated at radii ended
#: inconclusive on the first three after about 126,000 points, and read
#: ``diverges`` on the last, whose crossing lies about 2^-137 past R1
NEAR_CRITICAL_DRAWS = {
    "(20)[1]": dict(p=1.368243348891504, N=3, alpha=0.3494815077982205,
                    beta=1.3881357647151733, alpha1=-1.010343068189897,
                    beta1=-1.955387874875054),
    "(5)[2]": dict(p=2.8093059432330256, N=5, alpha=1.73678608835259,
                   beta=1.7953552162170976, alpha1=-1.0112961867785277,
                   beta1=-4.140361826398826),
    "(1)[4]": dict(p=3.847990439463344, N=4, alpha=2.7004467256022076,
                   beta=1.4495798815470673, alpha1=-1.0676886347791388,
                   beta1=-3.957910166647802),
    "(17)[2]": dict(p=1.4260890756552866, N=4, alpha=0.422898887686183,
                    beta=1.6646922490014078, alpha1=-1.0030718980624957,
                    beta1=-2.5392036424764743),
}


class TestIntegralPSigmaOracle:
    """The GK21-panel witness of (A) against a closed-envelope mpmath
    reference, ρ' = ρ^(1-p') = [r^(N-1) v]^(-1/(p-1)) and σ = r^(N-1) w."""

    @pytest.mark.parametrize("ps, args", [
        pytest.param(get_preset("annulus-n3").problem,
                     (2.0, 3, [(1, 2, 1, 0, 0)], [(1, 2, 1, 0, 0)]), id="annulus-n3"),
        pytest.param(get_preset("rmk22").problem,
                     (2.0, 3, [(1, mp.inf, 1, 0, 0)],
                      [(1, 2, 1, -1.5, 0), (2, mp.inf, 16, 0, -4)]), id="rmk22"),
        pytest.param(
            make_rmk23(**RMK23_JUMP_DRAW),
            (RMK23_JUMP_DRAW["p"], RMK23_JUMP_DRAW["N"], *_rmk23_pieces(**RMK23_JUMP_DRAW)),
            id="rmk23-jump",
        ),
    ] + [
        pytest.param(make_rmk23(**d), (d["p"], d["N"], *_rmk23_pieces(**d)), id=f"rmk23 {name}")
        for name, d in NEAR_CRITICAL_DRAWS.items() if name != "(17)[2]"
    ])
    def test_matches_mpmath(self, ps, args):
        res = C.integral_P_sigma(ps)
        ref = _mp_integral_P_sigma(*args)
        assert res.verdict == quad.CONVERGED
        assert abs(res.value - ref) <= 1e-8 * (1.0 + abs(ref))
        assert res.evaluations < 20_000


class TestCrossingBelowEveryRadius:
    """rmk23_draws(17)[2]: Φ = Ψ about 5e-42 past R1, where R1 + t rounds
    to R1; the crossing and the witnesses work in the offset t itself."""

    def test_crossing_is_an_offset(self):
        ps = make_rmk23(**NEAR_CRITICAL_DRAWS["(17)[2]"])
        t_star = C._crossing(ps)
        assert t_star is not None and 0.0 < t_star < 1e-30
        phi, psi = ps.phi_rho_conj.at(t_star), ps.psi_rho_conj.at(t_star)
        assert phi == pytest.approx(psi, rel=1e-10)

    def test_A_witness_does_not_read_divergence(self):
        # its P σ is about t^-0.99988 at R1, too close to critical for the
        # shell extrapolation to certify, so nothing bounds the mass below
        # the last shell: inconclusive, with an infinite error
        ps = make_rmk23(**NEAR_CRITICAL_DRAWS["(17)[2]"])
        res = C.integral_P_sigma(ps)
        assert res.verdict == quad.INCONCLUSIVE and math.isfinite(res.value)
        assert res.abs_error_estimate == INF

    def test_unresolved_witnesses_are_left_out(self):
        # the verdicts rest on the exponents; the shells of P σ and of W1's
        # integrand miss most of the mass (an mpmath I1 with a closed-form
        # head reads about 68,045, where the shells summed to 2,200)
        ps = make_rmk23(**NEAR_CRITICAL_DRAWS["(17)[2]"])
        rep_A, rep_W1 = C.check_A(ps), C.check_W1(ps)
        assert rep_A.holds and rep_W1.holds
        for key in ("integral_P_sigma", "quadrature_error", "embedding_constant"):
            assert key not in rep_A.witnesses
        assert "I1" not in rep_W1.witnesses
        failed = TestFailedWitnessProbes.FAILED
        assert rep_A.notes == f"numeric witness integral_P_sigma {failed}"
        assert rep_W1.notes == f"numeric witness I1 {failed}"

    def test_W1_witness_ends_early(self):
        calls, integrate = [], quad.integrate

        def counted(*args, **kwargs):
            calls.append(integrate(*args, **kwargs))
            return calls[-1]

        ps = make_rmk23(**NEAR_CRITICAL_DRAWS["(17)[2]"])
        with pytest.MonkeyPatch.context() as mp_:
            mp_.setattr(quad, "integrate", counted)
            assert C.check_W1(ps).holds
        assert len(calls) == 1 and calls[0].evaluations < 20_000


class TestCrossing:
    def test_annulus_n3_closed_form(self):
        # ρ' = r^-2 on (1, 2): Φ = 1 - 1/r and Ψ = 1/r - 1/2 meet at 4/3,
        # the offset 1/3 from R1
        t_star = C._crossing(get_preset("annulus-n3").problem)
        assert t_star == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_exterior_closed_form(self):
        # N = 3, v = 1 on (1, inf): Φ = 1 - 1/r and Ψ = 1/r meet at 2, the
        # offset 1 from R1
        ps = exterior([PowerLogPiece(1.0, INF, 1.0)],
                      [PowerLogPiece(1.0, INF, 1.0, 0.0, -4.0)])
        assert C._crossing(ps) == pytest.approx(1.0, rel=1e-12)

    def test_divergent_side_has_no_crossing(self):
        # v = 1 with N = 2: Ψ = ∫_r^∞ dr/r diverges, so P = Φ^(p-1) is smooth
        ps = exterior([PowerLogPiece(1.0, INF, 1.0)],
                      [PowerLogPiece(1.0, INF, 1.0, 0.0, -4.0)], N=2)
        assert ps.psi_rho_conj.divergent
        assert C._crossing(ps) is None


class TestAEpsLeft:
    def test_degenerate_family_holds(self):
        ps = make_ex61(alpha=0.5, delta=-0.25)
        for eps in (0.1, 0.5, 0.9):
            assert C.check_A_eps_L(ps, eps=eps).holds

    def test_log_blowup_still_holds(self):
        # w = (r-1)^{-1}: the sigma integral grows only logarithmically, so
        # (r-1)^eps beats it for every eps > 0; probe values confirm decay
        ps = exterior(
            [PowerLogPiece(1.0, INF, 1.0)],
            [PowerLogPiece(1.0, 2.0, 1.0, -1.0), PowerLogPiece(2.0, INF, 1.0, 0.0, -4.0)],
            N=3, p=2.0,
        )
        assert C.search_eps_L(ps) == 0.0
        rep = C.check_A_eps_L(ps, eps=0.5)
        assert rep.holds
        xi = rep.witnesses["xi"]
        phi = ps.phi_rho_conj
        psig = quad.RightCumulative(ps.sigma_model.restricted(1.0, xi))
        f_vals = [psig(1.0 + d) * phi(1.0 + d) ** 0.5 for d in (1e-3, 1e-6, 1e-9)]
        assert f_vals[0] > f_vals[1] > f_vals[2]

    def test_tiny_constant_weight_bounded(self):
        ps = const_problem(w=1e-8)
        assert C.check_A_eps_L(ps, eps=0.5).holds

    def test_heavy_sigma_needs_large_eps(self):
        # w = (r-1)^{-1.6}: F ~ (r-1)^{eps-0.6}; admissible only for eps >= 0.6
        ps = exterior(
            [PowerLogPiece(1.0, INF, 1.0)],
            [PowerLogPiece(1.0, 2.0, 1.0, -1.6), PowerLogPiece(2.0, INF, 1.0, 0.0, -4.0)],
            N=3, p=2.0,
        )
        assert C.search_eps_L(ps) == pytest.approx(0.6, abs=1e-12)
        assert C.check_A_eps_L(ps, eps=0.3).verdict == C.FAILS
        assert C.check_A_eps_L(ps, eps=0.8).holds

    def test_precondition_failure(self):
        # v = (r-1)^{p-1} makes rho^{1-p'} ~ (r-1)^{-1}: not integrable at R1
        ps = exterior(
            [PowerLogPiece(1.0, INF, 1.0, 1.0)],
            [PowerLogPiece(1.0, INF, 1.0, 0.0, -4.0)],
            N=3, p=2.0,
        )
        rep = C.check_A_eps_L(ps)
        assert rep.verdict == C.FAILS
        assert "precondition" in rep.notes

    def test_precondition_failure_off_the_exact_reciprocals(self):
        # the same v at p = 1.95, where (p-1) * (-1/(p-1)) rounds to
        # -0.9999999999999999: rho^{1-p'} must still get exactly -1
        p = 1.95
        ps = ProblemSpec(N=1, p=p, R1=1.0, R2=2.0,
                         v=WeightModel((PowerLogPiece(1.0, 2.0, 1.0, p - 1.0),), 1.0),
                         w=WeightModel((PowerLogPiece(1.0, 2.0, 1.0),), 1.0))
        assert (p - 1.0) * (-1.0 / (p - 1.0)) != -1.0
        assert ps.rho_conj_model.pieces[0].a == -1.0
        rep = C.check_A_eps_L(ps)
        assert rep.verdict == C.FAILS
        assert "precondition" in rep.notes


class TestAEpsRight:
    def test_degenerate_family_right_estimate(self):
        # p < N + alpha with an integrable sigma tail: every eps works
        ps = make_ex61(alpha=0.5)
        assert C.search_eps_R(ps) == 0.0
        assert C.check_A_eps_R(ps, eps=0.5).holds

    def test_nonintegrable_envelope_precondition(self):
        # p >= N, v = 1: rho^{1-p'} = r^{-(N-1)/(p-1)} with exponent >= -1
        ps = exterior(
            [PowerLogPiece(1.0, INF, 1.0)],
            [PowerLogPiece(1.0, INF, 1.0, 0.0, -5.0)],
            N=2, p=3.0,
        )
        rep = C.check_A_eps_R(ps)
        assert rep.verdict == C.FAILS
        assert "precondition" in rep.notes

    def test_finite_annulus_all_eps(self):
        ps = const_problem(N=3, R2=2.0)
        for eps in (0.05, 0.5, 0.95):
            assert C.check_A_eps_R(ps, xi=1.9, eps=eps).holds


class TestCheckOK:
    def test_unit_ball_coefficients(self):
        # N = 1 on a unit-length interval: the annulus (1, 2)
        ps = const_problem(R1=1.0, R2=2.0)
        rep = C.check_OK(ps)
        assert rep.holds

    def test_three_piece_weights_fail(self):
        rep = C.check_OK(make_rmk23())
        assert rep.verdict == C.FAILS
        assert rep.witnesses["alt1_limit_R1"] == "infinite"
        assert rep.witnesses["alt2_limit_R2"] == "infinite"

    def test_fast_tail_holds(self):
        # w = r^{-N-1}, v = 1, p < N: first alternative vanishes at both ends
        ps = exterior(
            [PowerLogPiece(1.0, INF, 1.0)],
            [PowerLogPiece(1.0, INF, 1.0, 0.0, -4.0)],
            N=3, p=2.0,
        )
        rep = C.check_OK(ps)
        assert rep.holds
        assert rep.witnesses["alt1_limit_R1"] == "zero"
        assert rep.witnesses["alt1_limit_R2"] == "zero"


class TestFailedWitnessProbes:
    """A numeric witness that overflows or comes out NaN says so in the
    notes; the verdict, from the exponent algebra, does not change."""

    FAILED = "failed; verdict from the exponent certificate"

    @staticmethod
    def _steep_annulus():
        # rho^{1-p'} ~ (r-1)^-65.2 near R1 = 1: its integral from
        # r - 1 = 2.3e-9 is finite but past the float range
        p = 1.1009235320031816
        v = WeightModel((PowerLogPiece(1.0, 3.5, 0.686, 65.2 * (p - 1.0)),), 1.0)
        return ProblemSpec(N=1, p=p, R1=1.0, R2=3.5, v=v,
                           w=WeightModel.constant(1.0, 1.0, 3.5))

    @staticmethod
    def _overflowing_tail():
        # rho^{1-p'} = 1e294 r^-(1 + 2^-52): Ψ(r) is about 4.5e309 r^-(2^-52),
        # finite but past the float range
        v = WeightModel((PowerLogPiece(1.0, INF, 1e-294, 0.0, 1.0 + 2.0**-52),), 1.0)
        w = WeightModel((PowerLogPiece(1.0, INF, 1.0, 0.0, -4.0),), 1.0)
        return ProblemSpec(N=1, p=2.0, R1=1.0, R2=INF, v=v, w=w)

    def test_power_int_overflow_is_inf(self):
        assert quad._power_int(2.3e-9, 2.5, -65.2) == INF
        assert quad._power_int(2.3e-9, INF, -65.2) == INF
        assert quad._power_int(0.0, 1e200, 2.0) == INF

    def test_overflowed_ok_probe_is_noted(self):
        rep = C.check_OK(self._steep_annulus())
        assert rep.verdict == C.FAILS
        assert (rep.witnesses["alt1_limit_R1"], rep.witnesses["alt1_limit_R2"]) == (
            "infinite", "zero")
        assert rep.witnesses["alt1_probe_R1"] == INF
        # alt2's probes are inf because phi of rho^{1-p'} diverges at R1:
        # an honest value, not a failed probe
        assert rep.witnesses["alt2_probe_R1"] == INF
        assert rep.notes == ("neither product alternative tends to 0 at both ends; "
                             f"numeric witness alt1_probe_R1 {self.FAILED}")

    def test_overflowed_eps_right_probe_is_noted(self):
        rep = C.check_A_eps_R(self._overflowing_tail())
        assert rep.verdict == C.HOLDS
        assert rep.witnesses["sup_F"] == INF
        assert rep.notes == f"numeric witness sup_F {self.FAILED}"

    def test_overflowed_tail_ok_probes_are_noted(self):
        rep = C.check_OK(self._overflowing_tail())
        assert rep.verdict == C.HOLDS
        assert rep.witnesses["alt1_probe_R1"] == INF
        assert rep.witnesses["alt1_probe_R2"] == INF
        assert rep.notes == ("first alternative passes; numeric witness "
                             f"alt1_probe_R1, alt1_probe_R2 {self.FAILED}")

    def test_overflowed_A_witness_is_left_out(self):
        rep = C.check_A(self._overflowing_tail())
        assert rep.holds
        assert "integral_P_sigma" not in rep.witnesses
        assert rep.notes == f"numeric witness integral_P_sigma {self.FAILED}"

    @pytest.mark.parametrize("name", ["rmk22", "rmk23"])
    def test_divergent_factor_is_not_a_failed_probe(self, name):
        # phi of sigma diverges at R1 on both presets, so their inf probes
        # are the true values
        rep = C.check_OK(get_preset(name).problem)
        assert INF in rep.witnesses.values()
        assert "numeric witness" not in rep.notes


def _logcritical_tails(v_tail, w_tail, N=3, p=2.0):
    """v = w = 1 on (1, 2) and the given (b, l) tails r^b (log r)^l beyond."""
    return exterior(
        [PowerLogPiece(1.0, 2.0, 1.0), PowerLogPiece(2.0, INF, 1.0, 0.0, *v_tail)],
        [PowerLogPiece(1.0, 2.0, 1.0), PowerLogPiece(2.0, INF, 1.0, 0.0, *w_tail)],
        N=N, p=p,
    )


class TestOKLogLogTails:
    """An integral of r^-1 (log r)^-1 grows like log log r: unbounded, but
    beaten by any negative power of log r."""

    @pytest.mark.parametrize("v_tail, w_tail, alt", [
        # σ = r^-1 (log r)^-1, ∫_r^∞ ρ' ~ (log r)^-0.1: alternative 1
        ((-1.0, 1.1), (-3.0, -1.0), "alt1"),
        # ∫_1^r ρ' ~ log log r, ∫_r^∞ σ ~ (log r)^-0.1: alternative 2
        ((-1.0, 1.0), (-3.0, -1.1), "alt2"),
    ])
    def test_loglog_growth_is_beaten_by_a_log_power(self, v_tail, w_tail, alt):
        rep = C.check_OK(_logcritical_tails(v_tail, w_tail))
        assert rep.holds
        assert rep.witnesses[f"{alt}_limit_R1"] == "zero"
        assert rep.witnesses[f"{alt}_limit_R2"] == "zero"


#: single-piece tails r^E (log r)^L of ρ' and σ; E = -1 carries the log
TAIL_LATTICE = [(-2.0, 0.0), (-2.0, 1.0), (-1.0, -1.1), (-1.0, -1.0),
                (-1.0, -0.9), (0.0, 0.0), (-0.5, 1.0)]


def _mp_tail_logs(E, L, head, t):
    """log ∫_1^r and log ∫_r^∞ (None if divergent) at log log r = t for
    head + r^E (log r)^L on (2, ∞), from closed-form antiderivatives in
    s = log r: ∫ e^{(E+1)s} s^L ds."""
    k, s, s2 = mp.mpf(E) + 1, mp.exp(t), mp.log(2)
    if k == 0:
        G = (lambda u: mp.log(u)) if L == -1 else (lambda u: u ** (L + 1) / (L + 1))
        tail = None if L >= -1 else -G(s)
    else:
        G = (lambda u: mp.exp(k * u) * (u / k - 1 / k**2)) if L == 1 \
            else (lambda u: mp.exp(k * u) / k)
        tail = -G(s) if k < 0 else None
    return mp.log(head + G(s) - G(s2)), (None if tail is None else mp.log(tail))


def _mp_ok_limit_at_infinity(rhoc_tail, sig_tail, sigma_first):
    """(OK) limit at infinity from the log of the product at log log r =
    10, 20, 40, 80: its last step decides (a log-log factor moves it by
    log 2, a power of log r by at least 4, a converging product by < 0.05)."""
    with mp.workdps(40):
        logs = []
        for t in (10, 20, 40, 80):
            s_left, s_right = _mp_tail_logs(*sig_tail, mp.mpf(7) / 3, t)
            r_left, r_right = _mp_tail_logs(*rhoc_tail, mp.mpf(1) / 2, t)
            a, b = (s_left, r_right) if sigma_first else (s_right, r_left)
            if a is None or b is None:
                return "infinite"
            logs.append(a + b)
        step = logs[-1] - logs[-2]
    return "zero" if step < -0.3 else "infinite" if step > 0.3 else "finite"


#: (ρ' tail, σ tail, sigma_first) whose factors (log r)^0.1 and
#: (log r)^-0.1 come from L = -0.9 and -1.1: in binary their powers miss
#: cancelling by 1.1e-16, which decides the exponent verdict (zero) but moves
#: the log of the product by 1e-14 between log log r = 40 and 80
NEAR_CANCELLING = {((-1.0, -1.1), (-1.0, -0.9), True),
                   ((-1.0, -0.9), (-1.0, -1.1), False)}


class TestOKTailOracle:
    """check_OK's limits at infinity against closed-form antiderivatives on a
    lattice of single-piece tails; N = 3, p = 2, so ρ' = r^-2 / v and
    σ = r^2 w."""

    @pytest.mark.parametrize("rhoc_tail", TAIL_LATTICE)
    @pytest.mark.parametrize("sig_tail", TAIL_LATTICE)
    def test_limits_at_infinity(self, rhoc_tail, sig_tail):
        (E, L), (Es, Ls) = rhoc_tail, sig_tail
        rep = C.check_OK(_logcritical_tails((-2.0 - E, -L), (Es - 2.0, Ls)))
        for alt, sigma_first in (("alt1", True), ("alt2", False)):
            if (rhoc_tail, sig_tail, sigma_first) in NEAR_CANCELLING:
                continue
            expect = _mp_ok_limit_at_infinity(rhoc_tail, sig_tail, sigma_first)
            assert rep.witnesses[f"{alt}_limit_R2"] == expect, alt


class TestW1W2:
    def test_heavy_inner_weight_passes_W1(self):
        rep = C.check_W1(make_rmk22(beta=-1.5))
        assert rep.holds
        assert "ADS" in rep.notes or "r^(p-1)" in rep.notes

    def test_singular_family_passes_W2(self):
        from radial_plap.presets import make_ex62

        rep = C.check_W2(make_ex62())
        assert rep.holds

    def test_critical_tail_fails_W1(self):
        # w = r^{-p}: the r^{p-1}-weighted tail integral has exponent -1
        for p, N in ((2.0, 3), (3.0, 4)):
            ps = exterior(
                [PowerLogPiece(1.0, INF, 1.0)],
                [PowerLogPiece(1.0, INF, 1.0, 0.0, -p)],
                N=N, p=p,
            )
            rep = C.check_W1(ps)
            assert rep.verdict == C.FAILS

    @pytest.mark.parametrize("verdict", [quad.INCONCLUSIVE, quad.DIVERGES])
    @pytest.mark.parametrize("check, name", [(C.check_W1, "I1"), (C.check_W2, "I2")])
    def test_unconverged_witness_is_left_out(self, monkeypatch, check, name, verdict):
        # both hold on rmk22 from exponents alone; a numeric witness that
        # does not converge keeps the verdict and the other witnesses
        ps = get_preset("rmk22").problem
        ref = check(ps)
        value = INF if verdict == quad.DIVERGES else 1.0
        monkeypatch.setattr(quad, "integrate",
                            lambda *args, **kwargs: quad.IntegralResult(value, INF, verdict, 1))
        rep = check(ps)
        assert ref.holds and rep.holds
        assert rep.witnesses == {k: v for k, v in ref.witnesses.items() if k != name}
        note = f"numeric witness {name} {TestFailedWitnessProbes.FAILED}"
        assert rep.notes == (f"{ref.notes}; {note}" if ref.notes else note)

    @pytest.mark.parametrize("preset, check, name, value", [
        # ∫_1^2 (r-1)^(-1/2) dr, and ∫_2^∞ r 16 r^-4 dr
        ("ex61", C.check_W1, "int_vinv_R_xi", 2.0),
        ("ex61", C.check_W1, "I2", 2.0),
        # ∫_1^2 dr, and ∫_0^1 t^(-1/2) dt
        ("rmk22", C.check_W1, "int_vinv_R_xi", 1.0),
        ("rmk22", C.check_W2, "I1", 2.0),
        # ∫_0^1 t^(3/4) dt
        ("ex62", C.check_W2, "I1", 4.0 / 7.0),
    ])
    def test_exact_witness_matches_closed_form(self, preset, check, name, value):
        assert check(get_preset(preset).problem).witnesses[name] == value

    def test_requires_exterior_domain(self):
        with pytest.raises(ValueError):
            C.check_W1(const_problem())

    def test_p_equals_N_log_weighted_tail(self):
        # at p = N the tail weighting is [r log r]^{N-1}; against w with tail
        # r^{-3} (log r)^l the integrand is r^{-1} (log r)^{l+2}, so the
        # split sits exactly at l = -3
        def build(l_w):
            v = WeightModel.constant(1.0, 1.0, INF)
            w = WeightModel(
                (PowerLogPiece(1.0, 2.0, 1.0, 0.0, -3.0),
                 PowerLogPiece(2.0, INF, 1.0, 0.0, -3.0, l_w)),
                1.0,
            )
            return ProblemSpec(N=3, p=3.0, R1=1.0, R2=INF, v=v, w=w)

        assert C.check_W1(build(-3.5)).holds
        assert C.check_W1(build(-3.0)).verdict == C.FAILS


def _with_w(w_pieces, N=3, v_pieces=(PowerLogPiece(1.0, INF, 1.0),)):
    return exterior(v_pieces, w_pieces, N=N)


#: w = (r-1)^-2.5 on (1, 2], continued by 16 r^-4: too heavy at R for
#: both integrability pairs
_HEAVY_AT_R = (PowerLogPiece(1.0, 2.0, 1.0, -2.5), PowerLogPiece(2.0, INF, 16.0, 0.0, -4.0))


class TestFailingVerdictBranches:
    """Each failing branch of the checks, on an exterior pair at p = 2 built
    to reach it; the verdict and its note, not the witness values."""

    @pytest.mark.parametrize("check, ps, note", [
        # v = (r-1) r^-2 at N = 1: rho^(1-p') = (r-1)^-1 r^2 diverges at both ends
        (C.check_A, _with_w([PowerLogPiece(1.0, INF, 1.0, 0.0, -4.0)], N=1,
                            v_pieces=[PowerLogPiece(1.0, INF, 1.0, 1.0, -2.0)]),
         "(i) fails: both one-sided integrals of rho^(1-p') diverge"),
        (C.check_W1, _with_w([PowerLogPiece(1.0, INF, 1.0, 0.0, -4.0)],
                             v_pieces=[PowerLogPiece(1.0, INF, 1.0, 0.0, -1.0)]),
         "essinf of v near infinity is 0"),
        (C.check_W1, _with_w(_HEAVY_AT_R), "diverges at R (exponent test)"),
        (C.check_W2, _with_w(_HEAVY_AT_R), "∫_R^ξ (r-R)^(p-1) w dr diverges"),
        # at N = 1, rho^(1-p') = 1 is not integrable at infinity
        (C.check_W2, _with_w([PowerLogPiece(1.0, INF, 1.0, 0.0, -4.0)], N=1),
         "[r^(N-1) v]^(-1/(p-1)) not integrable at infinity"),
        # sigma = 1 against the envelope r^-1: the integrand is r^-1
        (C.check_W2, _with_w([PowerLogPiece(1.0, INF, 1.0, 0.0, -2.0)]),
         "∫_ξ^∞ (∫_r^∞ ρ^(1-p'))^(p-1) σ dr diverges (exponent test)"),
    ])
    def test_fails_with_its_note(self, check, ps, note):
        rep = check(ps)
        assert rep.verdict == C.FAILS
        assert note in rep.notes

    def test_user_eps_outside_the_range(self):
        ps = _with_w([PowerLogPiece(1.0, INF, 1.0, 0.0, -4.0)])
        rep = C.check_A_eps_L(ps, eps=5.0)
        assert rep.verdict == C.FAILS
        assert rep.notes == "ε=5.0 outside (0, p-1)"

    def test_user_eps_without_an_admissible_one(self):
        # sigma = r^0.5 far out: (∫_ξ^r σ)(∫_r^∞ ρ^(1-p'))^ε ~ r^(1.5-ε) for
        # every ε in (0, 1), so a user ε has no exponent bound to meet
        ps = _with_w([PowerLogPiece(1.0, 2.0, 1.0, -1.5),
                      PowerLogPiece(2.0, INF, 2.0**1.5, 0.0, -1.5)])
        rep = C.check_A_eps_R(ps, eps=0.5)
        assert rep.verdict == C.FAILS
        assert rep.witnesses["eps_infimum"] == INF
        assert rep.notes == "probe sup grows without analytic bound"


class TestInvariants:
    def test_P_unimodal_on_probe_grid(self):
        for ps in (const_problem(), make_ex61(), make_rmk23()):
            span = 10.0 if not math.isfinite(ps.R2) else ps.R2 - ps.R1
            rs = np.unique(np.concatenate([
                ps.R1 + span * np.geomspace(1e-8, 0.99, 40),
            ]))
            rs = rs[(rs > ps.R1)]
            vals = np.array([C.capacity_P(ps, r) for r in rs])
            finite = np.isfinite(vals)
            v = vals[finite]
            k = int(np.argmax(v))
            assert np.all(np.diff(v[: k + 1]) >= -1e-9 * np.abs(v[1 : k + 1]))
            assert np.all(np.diff(v[k:]) <= 1e-9 * np.abs(v[k:-1]))

    def test_eps_L_implies_left_P_sigma_converges(self):
        """Whenever the left endpoint condition holds, the left contribution
        of the capacity integral converges (randomized degenerate family)."""
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(25):
            p = rng.uniform(1.5, 3.0)
            alpha = rng.uniform(0.0, p - 1.0 - 1e-3)
            delta = rng.uniform(-1.8, p - 1.0 - alpha - 1e-3)
            N = int(rng.integers(2, 5))
            if not p < N + alpha:
                continue
            try:
                ps = make_ex61(alpha=alpha, p=p, N=N, delta=delta,
                               tail=-(N + 1.5))
            except ValueError:
                continue
            rep = C.check_A_eps_L(ps)
            if rep.holds:
                assert C._p_sigma_converges(ps, LEFT_R1), (p, alpha, delta, N)
                checked += 1
        assert checked >= 10

    def test_three_piece_reproduction_random(self):
        """Ten random draws in the stated ranges: (W1) holds, (OK) fails."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            N = int(rng.integers(3, 6))
            p = rng.uniform(1.2, N - 0.1)
            alpha = rng.uniform(-1.0, p - 1.0 - 1e-6)
            beta = rng.uniform(0.0, 2.0)
            alpha1 = rng.uniform(alpha - p + 1e-6, -1.0)
            beta1 = rng.uniform(-N, -p - 1e-6)
            ps = make_rmk23(p=p, N=N, alpha=alpha, beta=beta,
                            alpha1=alpha1, beta1=beta1)
            assert C.check_W1(ps).holds, (p, N, alpha, beta, alpha1, beta1)
            assert C.check_OK(ps).verdict == C.FAILS

    def test_search_eps_infimum_sharp_pairing(self):
        """With w = (r-1)^{-1-d} the infimum is (p-1) d / (p-1-alpha)."""
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = rng.uniform(1.5, 3.5)
            alpha = rng.uniform(0.0, p - 1.0 - 0.05)
            d = rng.uniform(0.01, (p - 1.0 - alpha) * 0.9)
            ps = exterior(
                [PowerLogPiece(1.0, INF, 1.0, alpha)],
                [PowerLogPiece(1.0, 2.0, 1.0, -1.0 - d),
                 PowerLogPiece(2.0, INF, 1.0, 0.0, -6.0)],
                N=4, p=p,
            )
            got = C.search_eps_L(ps)
            expect = (p - 1.0) * d / (p - 1.0 - alpha)
            clamped = min(max(expect, 0.0), p - 1.0)
            assert got == pytest.approx(clamped, abs=1e-6)
