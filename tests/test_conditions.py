import math

import mpmath as mp
import numpy as np
import pytest

from radial_plap import conditions as C
from radial_plap import quadrature as quad
from radial_plap.presets import get_preset, make_ex61, make_rmk22, make_rmk23
from radial_plap.weights import INF, PowerLogPiece, ProblemSpec, WeightModel


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
        ps = const_problem(R1=0.0, R2=1.0)
        for r in (0.1, 0.25, 0.5, 0.8):
            assert C.capacity_P(ps, r) == pytest.approx(min(r, 1.0 - r), rel=1e-10)

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


def _mp_integral_P_sigma(rho_conj, sigma, r1, r2, breaks=()):
    """∫ min(Φ, Ψ) σ dr for p = 2 at 30 digits, with Φ = ∫_{R1}^r ρ', Ψ = ∫_r^{R2} ρ'.

    Independent of the package: every integral is an mpmath quadrature of
    the weights as written here, split at ``breaks`` and at the crossing.
    """
    with mp.workdps(30):
        total = mp.quad(rho_conj, [r1, r2])
        phi = lambda r: mp.quad(rho_conj, [r1, r])
        r_star = mp.findroot(lambda r: 2 * phi(r) - total,
                             r1 + 1 if r2 == mp.inf else (r1 + r2) / 2)
        left = [r1] + [b for b in breaks if b < r_star] + [r_star]
        right = [r_star] + [b for b in breaks if b > r_star] + [r2]
        v = mp.quad(lambda r: phi(r) * sigma(r), left) \
            + mp.quad(lambda r: (total - phi(r)) * sigma(r), right)
        return float(v)


class TestIntegralPSigmaOracle:
    """The QUADPACK-panel witness of (A) against mpmath (p = 2, N = 3, so
    ρ' = ρ^(1-p') = 1/(r^2 v) and σ = r^2 w)."""

    @pytest.mark.parametrize("name, r2, w, breaks", [
        ("annulus-n3", 2.0, lambda r: 1, ()),
        ("rmk22", mp.inf, lambda r: (r - 1) ** mp.mpf(-1.5) if r <= 2 else 16 / r**4, (2,)),
    ])
    def test_matches_mpmath(self, name, r2, w, breaks):
        ps = get_preset(name).problem
        res = C.integral_P_sigma(ps)
        ref = _mp_integral_P_sigma(lambda r: 1 / r**2, lambda r: r**2 * w(r),
                                   mp.mpf(1), r2, breaks)
        assert res.verdict == quad.CONVERGED
        assert abs(res.value - ref) <= 1e-8 * (1.0 + abs(ref))


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
        ps = const_problem(R1=0.0, R2=1.0)
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
                assert C._psig_left_converges(ps), (p, alpha, delta, N)
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
