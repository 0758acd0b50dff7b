import math

import numpy as np
import pytest
import scipy.integrate

from radial_plap import solver as S
from radial_plap.presets import make_annulus, make_ex61
from radial_plap.weights import INF, PowerLogPiece, ProblemSpec, WeightModel

PI2 = math.pi**2

# acceptance criterion 3's finite-annulus weights, by p
CRITERION3 = {
    1.5: (1.5, 3, 0.25, -0.2, -4.0),
    2.0: (2.0, 3, 0.5, -0.25, -4.0),
    3.0: (3.0, 3, 1.0, -0.5, -5.0),
}


class TestShoot:
    def test_eigenvalue_lands_zero_at_right_end(self, trivial_annulus):
        res = S.shoot(trivial_annulus, PI2, r_end=2.0)
        if res.first_zero is None:
            assert abs(res.terminal_u) <= 1e-8
        else:
            assert res.first_zero == pytest.approx(2.0, abs=1e-8)

    def test_low_lambda_stays_positive(self, trivial_annulus):
        res = S.shoot(trivial_annulus, (math.pi / 2.0) ** 2, r_end=2.0)
        assert res.first_zero is None
        # u ~ sin((pi/2)(r-1)) has terminal value sin(pi/2) times the scale
        assert res.terminal_u > 0.5

    def test_spherical_closed_form(self, annulus_n3):
        # u = sin(pi (r-1))/r solves -(r^2 u')' = pi^2 r^2 u
        res = S.shoot(annulus_n3, PI2, r_end=2.0)
        if res.first_zero is None:
            assert abs(res.terminal_u) <= 1e-6
        else:
            assert res.first_zero == pytest.approx(2.0, abs=1e-6)

    def test_sturm_ordering(self, trivial_annulus):
        """First zero location is nonincreasing in lambda."""
        lams = PI2 * np.linspace(1.05, 8.0, 20)
        zeros = [S.shoot(trivial_annulus, lam, r_end=2.0).first_zero for lam in lams]
        assert all(z is not None for z in zeros)
        assert all(z2 <= z1 + 1e-10 for z1, z2 in zip(zeros, zeros[1:]))


class TestFindLambda1:
    def test_trivial_pi_squared(self, trivial_eigenpair):
        assert trivial_eigenpair.lam == pytest.approx(PI2, rel=1e-8)
        assert trivial_eigenpair.zero_count == 0
        r = trivial_eigenpair.mesh.nodes
        assert np.max(np.abs(trivial_eigenpair.u - np.sin(math.pi * (r - 1)))) < 1e-5

    def test_annulus_n3(self, annulus_n3):
        eig = S.find_lambda1(annulus_n3, check=False)
        assert eig.lam == pytest.approx(PI2, rel=1e-8)
        r = eig.mesh.nodes
        ref = np.sin(math.pi * (r - 1)) / r
        ref /= np.max(ref)
        assert np.max(np.abs(eig.u - ref)) < 1e-6

    def test_positivity_and_oscillation_proxy(self, trivial_annulus, trivial_eigenpair):
        assert np.all(trivial_eigenpair.u > 0.0)
        res = S.shoot(trivial_annulus, 4.0 * trivial_eigenpair.lam, r_end=2.0)
        assert res.first_zero is not None and res.first_zero < 2.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_insane_bracket_raises(self, trivial_annulus, dual_instance):
        # a lam far above the spectrum overflows the state: a typed error,
        # never a NaN margin or a RuntimeWarning
        for ps in [trivial_annulus, dual_instance(*CRITERION3[1.5]),
                   dual_instance(*CRITERION3[3.0])]:
            with pytest.raises(S.SolverError):
                S.find_lambda1(ps, check=False, bracket=(1e290, 2e290))

    @pytest.mark.parametrize("name,p,nudges", [("p=2 degenerate", 2.0, 0),
                                               ("p=3 degenerate", 3.0, 1)])
    def test_lambda_nudges_are_reported(self, name, p, nudges, dual_instance):
        eig = S.find_lambda1(dual_instance(*CRITERION3[p]), check=False)
        d = eig.diagnostics
        assert d["lambda_nudges"] == nudges, name
        lam = d["lambda_root"]
        for _ in range(d["lambda_nudges"]):
            lam *= 1.0 - 8.0 * max(d["lambda_rtol"], 1e-12)
        assert lam == eig.lam

    def test_condition_gate(self):
        # exterior pair with a critical sigma tail violates condition (A)
        ps = ProblemSpec(
            N=3, p=2.0, R1=1.0, R2=INF,
            v=WeightModel.constant(1.0, 1.0, INF),
            w=WeightModel((PowerLogPiece(1.0, INF, 1.0, 0.0, -2.0),), 1.0),
        )
        with pytest.raises(S.SolverError, match="condition"):
            S.find_lambda1(ps, r_max=8.0)

    def test_dual_method_cross_check_exterior(self):
        # N = 3 annulus weights with an integrable tail, solved on (1, inf)
        ps = ProblemSpec(
            N=3, p=2.0, R1=1.0, R2=INF,
            v=WeightModel.constant(1.0, 1.0, INF),
            w=WeightModel((PowerLogPiece(1.0, 2.0, 1.0),
                           PowerLogPiece(2.0, INF, 16.0, 0.0, -4.0)), 1.0),
        )
        eig = S.find_lambda1(ps, ladder=[4.0, 8.0, 16.0], check=False)
        assert eig.lam > 0
        psm = ps.truncated(16.0)
        mesh = S.make_mesh(psm, n_core=2500)
        eig_r = S.rayleigh_minimize(psm, mesh)
        lam_d = eig.diagnostics["lambda_dirichlet_last"]
        assert abs(lam_d - eig_r.lam) / lam_d < 1e-3


class _ScipyOracle:
    """Runs scipy's ``solve_ivp`` beside the package's DOP853 driver on every
    segment a shoot integrates, and requires bit-identical results."""

    def __init__(self, monkeypatch):
        self.kinds, self.statuses, self.dense_points = set(), set(), 0
        driver, integrate = S.solve_ivp, S._integrate_segment

        def both(fun, t_span, y0, **kw):
            ours = driver(fun, t_span, y0, **kw)
            event = kw["events"]

            def scipy_event(t, y):
                return event(t, y)

            scipy_event.terminal = True
            scipy_event.direction = -1
            ref = scipy.integrate.solve_ivp(fun, t_span, y0, method="DOP853",
                                            **{**kw, "events": scipy_event})
            assert np.array_equal(ours.t, ref.t)
            assert np.array_equal(ours.y, ref.y)
            assert ours.nfev == ref.nfev
            assert (ours.status, ours.success) == (ref.status, ref.success)
            for mine, theirs in [(ours.t_events, ref.t_events), (ours.y_events, ref.y_events)]:
                assert len(mine) == len(theirs) == 1
                assert np.array_equal(mine[0], theirs[0])
            assert (ours.sol is None) == (ref.sol is None)
            if ours.sol is not None:
                ours.sol = self._compared(ours.sol, ref.sol)
            self.statuses.add(ours.status)
            return ours

        def integrate_segment(ps, lam, s0, s1, *args):
            sol, fwd, inv = integrate(ps, lam, s0, s1, *args)
            self.kinds.add("r" if fwd(s0) == s0 else "log r" if fwd is math.log
                           else "log(r - R1)")
            return sol, fwd, inv

        monkeypatch.setattr(S, "solve_ivp", both)
        monkeypatch.setattr(S, "_integrate_segment", integrate_segment)

    def _compared(self, mine, theirs):
        def sol(xs):
            out = mine(xs)
            assert np.array_equal(out, theirs(xs))
            self.dense_points += len(xs)
            return out

        return sol


class TestDop853Driver:
    """The driver must reproduce scipy's DOP853 bit for bit: ``==``, never a
    tolerance, so a scipy upgrade that changes its arithmetic shows here."""

    @pytest.mark.parametrize("p", sorted(CRITERION3))
    def test_shoots_bit_identical_to_scipy(self, p, dual_instance, monkeypatch):
        oracle = _ScipyOracle(monkeypatch)
        zeros = []
        # r2 = 8 integrates [2, 8] in r, r2 = 20 integrates [2, 20] in log r;
        # lam = 0.2 has no zero, 2 a zero past r = 2, 30 a zero before it
        for r2, lam, dense in [(8.0, 0.2, False), (8.0, 2.0, True), (20.0, 0.2, True),
                               (20.0, 2.0, False), (20.0, 30.0, True)]:
            ps = dual_instance(*CRITERION3[p], r2=r2)
            mesh = S.make_mesh(ps, n_core=100, per_decade=4)
            res = S.shoot(ps, lam, mesh=mesh, want_trace=dense)
            zeros.append(res.first_zero)
            assert (res.trace is not None) == dense
        assert oracle.kinds == {"log(r - R1)", "r", "log r"}
        assert oracle.statuses == {0, 1}
        assert oracle.dense_points > 0
        assert zeros[0] is None and zeros[1] > 2.0 and zeros[4] < 2.0

    def test_oscillator_against_scipy(self):
        def rhs(t, y):
            return (y[1], -y[0])

        def event(t, y):
            return y[0]

        for dense in (False, True):
            ours = S.solve_ivp(rhs, (0.0, 10.0), (1.0, 0.0), rtol=1e-9, atol=(1e-12, 1e-12),
                               dense_output=dense, events=event)
            event.terminal, event.direction = True, -1
            ref = scipy.integrate.solve_ivp(rhs, (0.0, 10.0), (1.0, 0.0), method="DOP853",
                                            rtol=1e-9, atol=1e-12, dense_output=dense,
                                            events=event)
            assert ours.t_events[0][0] == ref.t_events[0][0]
            assert ours.t_events[0][0] == pytest.approx(math.pi / 2, rel=1e-9)
            assert np.array_equal(ours.t, ref.t) and np.array_equal(ours.y, ref.y)
            assert ours.nfev == ref.nfev
            if dense:
                xs = np.linspace(0.0, ours.t[-1], 50)
                assert np.array_equal(ours.sol(xs), ref.sol(xs))

    def test_non_finite_derivative_raises(self):
        with pytest.raises(FloatingPointError):
            S.solve_ivp(lambda t, y: (y[0] * 1e300, 0.0), (0.0, 1.0), (1e10, 0.0), rtol=1e-6,
                        atol=(1e-9, 1e-9), dense_output=False, events=lambda t, y: y[0])


class TestHomogeneity:
    def test_w_scaling(self, trivial_annulus, trivial_eigenpair):
        for c in (0.1, 10.0):
            eig_c = S.find_lambda1(trivial_annulus.with_scaled_w(c), check=False)
            assert eig_c.lam * c == pytest.approx(trivial_eigenpair.lam, rel=1e-8)
            assert np.max(np.abs(eig_c.u - trivial_eigenpair.u)) < 1e-6

    def test_v_scaling(self, trivial_annulus, trivial_eigenpair):
        for c in (0.1, 10.0):
            eig_c = S.find_lambda1(trivial_annulus.with_scaled_v(c), check=False)
            assert eig_c.lam == pytest.approx(c * trivial_eigenpair.lam, rel=1e-8)


class TestRayleighQuotient:
    def test_sine_gives_pi_squared(self, trivial_annulus):
        mesh = S.make_mesh(trivial_annulus, n_core=2000)
        u = np.sin(math.pi * (mesh.nodes - 1.0))
        q = S.rayleigh_quotient(trivial_annulus, mesh, u)
        assert q == pytest.approx(PI2, rel=2e-6)

    def test_scaling_invariance(self, trivial_annulus):
        mesh = S.make_mesh(trivial_annulus, n_core=500)
        u = np.sin(math.pi * (mesh.nodes - 1.0))
        q1 = S.rayleigh_quotient(trivial_annulus, mesh, u)
        q2 = S.rayleigh_quotient(trivial_annulus, mesh, 7.5 * u)
        assert q2 == pytest.approx(q1, rel=1e-13)

    def test_hat_is_upper_bound(self):
        ps = make_ex61().truncated(8.0)
        mesh = S.make_mesh(ps, n_core=1500)
        hat = S.envelope_hat(ps, mesh)
        q = S.rayleigh_quotient(ps, mesh, hat)
        eig = S.find_lambda1(ps, check=False)
        assert np.isfinite(q)
        assert q >= eig.lam * (1.0 - 1e-8)

    def test_zero_denominator(self, trivial_annulus):
        mesh = S.make_mesh(trivial_annulus, n_core=100)
        with pytest.raises(ValueError):
            S.rayleigh_quotient(trivial_annulus, mesh, np.zeros(mesh.n))


class TestRayleighMinimize:
    def test_trivial(self, trivial_annulus):
        mesh = S.make_mesh(trivial_annulus, n_core=2000,
                           delta_left=1e-6, delta_right=1e-6)
        eig = S.rayleigh_minimize(trivial_annulus, mesh)
        assert eig.lam == pytest.approx(PI2, rel=1e-3)
        assert eig.zero_count == 0

    def test_p3_agreement(self):
        ps = make_annulus(N=1, p=3.0)
        eig_s = S.find_lambda1(ps, check=False)
        mesh = S.make_mesh(ps, n_core=2000, delta_left=1e-6, delta_right=1e-6)
        eig_r = S.rayleigh_minimize(ps, mesh)
        assert abs(eig_s.lam - eig_r.lam) / eig_s.lam < 1e-3

    def test_degenerate_weight_agreement(self):
        ps = make_ex61(alpha=0.5).truncated(8.0)
        eig_s = S.find_lambda1(ps, check=False)
        mesh = S.make_mesh(ps, n_core=2000)
        eig_r = S.rayleigh_minimize(ps, mesh)
        assert abs(eig_s.lam - eig_r.lam) / eig_s.lam < 1e-3

    def test_quotient_consistency_on_shoot_eigenfunction(self, trivial_annulus,
                                                         trivial_eigenpair):
        q = S.rayleigh_quotient(trivial_annulus, trivial_eigenpair.mesh,
                                trivial_eigenpair.u)
        lam = trivial_eigenpair.lam
        assert q - lam > -1e-5 * lam  # the discrete form may dip slightly below
        assert q - lam < 1e-3 * lam


class TestFlux:
    def test_linear_unit_flux(self, trivial_annulus):
        mesh = S.make_mesh(trivial_annulus, n_core=400)
        g = S.flux(trivial_annulus, mesh, mesh.nodes.copy())
        assert np.max(np.abs(g - 1.0)) < 1e-8

    def test_principal_flux_cosine(self, trivial_eigenpair, trivial_annulus):
        r = trivial_eigenpair.mesh.nodes
        expect = math.pi * np.cos(math.pi * (r - 1.0))
        assert np.max(np.abs(trivial_eigenpair.flux - expect)) < 1e-5

    def test_flux_nearly_constant_at_degenerate_boundary(self):
        ps = make_ex61().truncated(8.0)
        eig = S.find_lambda1(ps, check=False)
        near = eig.mesh.nodes < 1.0 + 1e-6
        g = eig.flux[near]
        assert np.min(g) > 0
        assert np.max(g) / np.min(g) < 1.0 + 1e-4

    def test_residual_decreases_under_refinement(self, annulus_n3):
        eig_c = S.find_lambda1(annulus_n3, check=False, n_core=400, per_decade=12)
        eig_f = S.find_lambda1(annulus_n3, check=False, n_core=1600, per_decade=24)
        r_c = eig_c.diagnostics["residual_norm"]
        r_f = eig_f.diagnostics["residual_norm"]
        assert r_f < r_c / 2.0  # at least first order in the spacing


class TestTruncationLadder:
    def test_dirichlet_monotone(self, ex61):
        eig = S.find_lambda1(ex61, ladder=[4.0, 8.0, 16.0], check=False)
        vals = [l for _, l in eig.diagnostics["ladder"]]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert eig.diagnostics["lambda_extrapolated"] <= vals[-1]


class TestFixedPointLeft:
    def test_sine_shape(self, trivial_annulus):
        nodes, u = S.fixed_point_left(trivial_annulus, PI2, 1.5, iters=30)
        ref = np.sin(math.pi * (nodes - 1.0))
        err = np.max(np.abs(u / u[-1] - ref / ref[-1]))
        assert err < 1e-3

    def test_zero_seed_is_fixed(self, trivial_annulus):
        nodes, u = S.fixed_point_left(trivial_annulus, PI2, 1.5, iters=1,
                                      u_seed=np.zeros(161))
        assert np.max(np.abs(u)) == 0.0

    def test_degenerate_boundary_log_slope(self):
        """Iterate's log-slope near R1 approaches (p-1-alpha)/(p-1)."""
        ps = make_ex61(alpha=0.5, p=2.0, N=3).truncated(16.0)
        eig = S.find_lambda1(ps, check=False)
        a_tilde = float(eig.mesh.nodes[int(np.argmax(eig.u))])
        nodes, u = S.fixed_point_left(ps, eig.lam, a_tilde, iters=25)
        sel = (nodes - 1.0 > 1e-8) & (nodes - 1.0 < 1e-5)
        slope = np.polyfit(np.log(nodes[sel] - 1.0), np.log(u[sel]), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.02)

    def test_matches_shooting_profile(self, trivial_annulus, trivial_eigenpair):
        a_tilde = 1.5
        nodes, u = S.fixed_point_left(trivial_annulus, trivial_eigenpair.lam,
                                      a_tilde, iters=30)
        mesh_u = np.interp(nodes, trivial_eigenpair.mesh.nodes, trivial_eigenpair.u)
        scale = u[-1] / mesh_u[-1]
        assert np.max(np.abs(u / scale - mesh_u)) < 1e-3


class TestBallDomain:
    def test_unit_ball_coefficients(self):
        # R1 = 0 with N = 1 is the unit interval again: lam_1 = pi^2
        one = WeightModel.constant(1.0, 0.0, 1.0)
        ps = ProblemSpec(N=1, p=2.0, R1=0.0, R2=1.0, v=one, w=one)
        eig = S.find_lambda1(ps, check=False)
        assert eig.lam == pytest.approx(math.pi**2, rel=1e-8)


class TestMesh:
    def test_strictly_increasing_and_offsets(self, trivial_annulus):
        mesh = S.make_mesh(trivial_annulus, n_core=300)
        assert np.all(np.diff(mesh.nodes) > 0)
        assert mesh.nodes[0] - 1.0 <= mesh.delta_left + 1e-12
        assert 2.0 - mesh.nodes[-1] <= mesh.delta_right + 1e-12

    def test_junctions_are_nodes(self, ex61):
        mesh = S.make_mesh(ex61.truncated(8.0), n_core=300)
        assert np.any(np.isclose(mesh.nodes, 2.0, rtol=0, atol=1e-12))
