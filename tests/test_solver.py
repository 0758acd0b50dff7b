import itertools
import math
import random
import sys

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from scipy.integrate._ivp import dop853_coefficients

from radial_plap import _dop853_tableau, asymptotics
from radial_plap import solver as S
from radial_plap.dop853 import brentq
from radial_plap.presets import get_preset, make_annulus, make_ex61
from radial_plap.weights import INF, PowerLogPiece, ProblemSpec, WeightModel

PI2 = math.pi**2

# acceptance criterion 3's finite-annulus weights, by p
CRITERION3 = {
    1.5: (1.5, 3, 0.25, -0.2, -4.0),
    2.0: (2.0, 3, 0.5, -0.25, -4.0),
    3.0: (3.0, 3, 1.0, -0.5, -5.0),
}
# all five instances of acceptance criterion 3
DUAL = {
    "p=1.5 degenerate": CRITERION3[1.5],
    "p=2 degenerate": CRITERION3[2.0],
    "p=3 degenerate": CRITERION3[3.0],
    "p=2 singular": (2.0, 3, -0.5, -0.25, -4.0),
    "p=3 singular": (3.0, 4, -0.5, -0.25, -5.0),
}


def _plan(ps, **mesh_kwargs):
    """A root's shooting set-up on ``make_mesh``'s mesh of the finite ``ps``."""
    return S._Shooting(ps, S.make_mesh(ps, **mesh_kwargs))


class TestShoot:
    def test_eigenvalue_lands_zero_at_right_end(self, trivial_annulus):
        res = S.shoot(_plan(trivial_annulus), PI2)
        if res.first_zero is None:
            assert abs(res.terminal_u) <= 1e-8
        else:
            assert res.first_zero == pytest.approx(2.0, abs=1e-8)

    def test_low_lambda_stays_positive(self, trivial_annulus):
        res = S.shoot(_plan(trivial_annulus), (math.pi / 2.0) ** 2)
        assert res.first_zero is None
        # u ~ sin((pi/2)(r-1)) has terminal value sin(pi/2) times the scale
        assert res.terminal_u > 0.5

    def test_spherical_closed_form(self, annulus_n3):
        # u = sin(pi (r-1))/r solves -(r^2 u')' = pi^2 r^2 u
        res = S.shoot(_plan(annulus_n3), PI2)
        if res.first_zero is None:
            assert abs(res.terminal_u) <= 1e-6
        else:
            assert res.first_zero == pytest.approx(2.0, abs=1e-6)

    def test_sturm_ordering(self, trivial_annulus):
        """First zero location is nonincreasing in lambda."""
        lams = PI2 * np.linspace(1.05, 8.0, 20)
        plan = _plan(trivial_annulus)
        zeros = [S.shoot(plan, lam).first_zero for lam in lams]
        assert all(z is not None for z in zeros)
        assert all(z2 <= z1 + 1e-10 for z1, z2 in zip(zeros, zeros[1:]))

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
    def test_lambda_outside_its_domain_raises(self, trivial_annulus, lam):
        # a NaN lam used to pass the sign test and reach the integrator
        with pytest.raises(S.SolverError, match="lam must be positive"):
            S.shoot(_plan(trivial_annulus), lam)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_insane_lambda_raises(self, trivial_annulus, dual_instance):
        # a lam far above the spectrum overflows the state: a typed error,
        # never a NaN margin or a RuntimeWarning
        for ps in [trivial_annulus, dual_instance(*CRITERION3[1.5]),
                   dual_instance(*CRITERION3[3.0])]:
            plan = _plan(ps)
            for lam in (1e290, 2e290):
                with pytest.raises(S.SolverError):
                    S.shoot(plan, lam)


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
        res = S.shoot(_plan(trivial_annulus), 4.0 * trivial_eigenpair.lam)
        assert res.first_zero is not None and res.first_zero < 2.0

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

    def test_no_positive_trace_after_the_nudges_raises(self, trivial_annulus):
        # at 4 pi^2 the trace has an interior zero however far the eight
        # nudges step lam down; it used to come back cut at that zero, with
        # the last nudge's lam, which no shoot ran
        with pytest.raises(S.SolverError, match="not positive 8 nudges below"):
            S._eigenpair_from_shoot(4.0 * PI2, _plan(trivial_annulus), None, 1e-10, {})

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_tol_outside_its_domain_raises(self, trivial_annulus, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            S.find_lambda1(trivial_annulus, tol=tol, check=False)

    @pytest.mark.parametrize("preset,kwargs", [
        ("annulus-n3", dict(bc="matched")),
        ("annulus-n3", dict(ladder=[4.0])),
        ("annulus-n3", dict(r_max=3.0)),
        ("ex62", dict(bc="Matched")),
        ("annulus-n3", dict(bc="neumann")),
    ])
    def test_options_outside_their_domain_raise(self, preset, kwargs):
        # on a finite R2 these options used to be ignored, and an unknown bc
        # ran Dirichlet
        with pytest.raises(ValueError, match="bc"):
            S.find_lambda1(get_preset(preset).problem, check=False, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(ladder=[]),
        dict(ladder=[8.0, 4.0]),
        dict(ladder=[4.0, 4.0]),
        dict(ladder=[0.5, 4.0]),
        dict(ladder=[1.0, 4.0]),
        dict(r_max=0.5),
    ])
    def test_invalid_ladder_raises(self, ex62, kwargs):
        with pytest.raises(ValueError, match="truncation ladder must be"):
            S.find_lambda1(ex62, check=False, **kwargs)

    @pytest.mark.parametrize("r_max", [math.inf, math.nan])
    def test_non_finite_r_max_raises(self, ex62, r_max):
        # r_max = inf used to grow the automatic ladder until memory ran out
        with pytest.raises(ValueError, match="r_max must be finite"):
            S.find_lambda1(ex62, check=False, r_max=r_max)

    def test_ladder_and_r_max_together_raise(self, ex62):
        with pytest.raises(ValueError, match="not both"):
            S.find_lambda1(ex62, check=False, ladder=[4.0], r_max=8.0)

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

    def test_overflowed_starting_estimate_raises(self):
        """v = 1e-294 r^(1 + 2^-52): the left envelope's p-th powers overflow
        the coarse Rayleigh estimate, which is refused before any shoot
        (the suite turns a numpy RuntimeWarning into an error)."""
        v = WeightModel((PowerLogPiece(1.0, INF, 1e-294, 0.0, 1.0 + 2.0**-52),), 1.0)
        w = WeightModel((PowerLogPiece(1.0, INF, 1.0, 0.0, -4.0),), 1.0)
        ps = ProblemSpec(N=1, p=2.0, R1=1.0, R2=INF, v=v, w=w)
        with pytest.raises(S.SolverError, match="no starting estimate"):
            S.find_lambda1(ps, ladder=[4.0, 8.0], bc="matched", check=False)


# the bench's exterior ladders: preset, truncation condition, rungs
LADDERS = {
    "ex62 dirichlet": ("ex62", "dirichlet", [4.0, 8.0, 16.0]),
    "ex62 matched": ("ex62", "matched", [4.0, 8.0, 16.0, 32.0]),
    "rmk22 matched": ("rmk22", "matched", [4.0, 8.0, 16.0, 32.0]),
}


def _solve_ladder(name):
    preset, bc, rungs = LADDERS[name]
    return S.find_lambda1(get_preset(preset).problem, ladder=rungs, check=False, bc=bc)


def _eigenfunction_lam(eig):
    """The lam the eigenfunction was shot at: the root, nudged as reported
    (for a ladder, the last rung's root rather than the extrapolated lam)."""
    d = eig.diagnostics
    lam = d["lambda_root"]
    for _ in range(d["lambda_nudges"]):
        lam *= 1.0 - 8.0 * max(d["lambda_rtol"], 1e-12)
    return lam


class TestOneIntegrationPerLambda:
    """find_lambda1 takes the eigenfunction from the root's own margin shoot
    at the lam brentq returns (for a ladder, the last rung's root): each lam
    is integrated once, and the trace is, bit for bit, the one a fresh shoot
    at that lam gives."""

    @staticmethod
    def _problem(name, dual_instance):
        if name in DUAL:
            return dual_instance(*DUAL[name]), {}
        # what `radial-plap example ex62` solves: its default truncation
        ps = get_preset(name).problem
        return ps.truncated(asymptotics.default_truncation(ps)), dict(n_core=3000, per_decade=16)

    @staticmethod
    def _assert_fresh_shoot(ps, eig, **mesh_kwargs):
        lam = _eigenfunction_lam(eig)
        plan = _plan(ps, **mesh_kwargs)
        assert np.array_equal(plan.mesh.nodes, eig.mesh.nodes)
        r, u, g = S._trace(S.shoot(plan, lam))
        scale = float(np.max(u))
        assert np.array_equal(r, eig.mesh.nodes)
        assert np.array_equal(u / scale, eig.u)
        assert np.array_equal(g / scale ** (ps.p - 1.0), eig.flux)

    @pytest.mark.parametrize("name", [*DUAL, "ex62"])
    def test_trace_equals_a_fresh_shoot(self, name, dual_instance):
        ps, kwargs = self._problem(name, dual_instance)
        eig = S.find_lambda1(ps, check=False, **kwargs)
        # eig.lam is the root, or the nudged lam whose trace is positive
        assert eig.lam == _eigenfunction_lam(eig)
        self._assert_fresh_shoot(ps, eig, **kwargs)

    @pytest.mark.parametrize("name", LADDERS)
    def test_ladder_trace_equals_a_fresh_shoot(self, name):
        eig = _solve_ladder(name)
        r_last = eig.diagnostics["truncation_radius"]
        assert r_last == LADDERS[name][2][-1]
        assert eig.mesh.r_end == r_last
        self._assert_fresh_shoot(get_preset(LADDERS[name][0]).problem.truncated(r_last), eig)

    @staticmethod
    def _assert_each_lambda_integrated_once(solve, nudges, monkeypatch):
        """Runs ``solve`` with every shoot and every integration logged, by
        the end of the problem shot (a ladder rung) and lam."""
        shoots, solves = [], []
        shoot, solve_ivp = S.shoot, S.solve_ivp

        def logged_shoot(plan, lam):
            shoots.append((plan.ps.R2, lam))
            return shoot(plan, lam)

        def logged_solve(*args, **kwargs):
            solves.append(shoots[-1] if shoots else None)
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(S, "shoot", logged_shoot)
        monkeypatch.setattr(S, "solve_ivp", logged_solve)
        eig = solve()
        monkeypatch.undo()
        # every integration is a shoot's, and no lam is shot twice on one rung
        assert solves and None not in solves
        assert len(set(shoots)) == len(shoots)
        runs = [key for i, key in enumerate(solves) if i == 0 or solves[i - 1] != key]
        assert runs == shoots
        d = eig.diagnostics
        assert d["lambda_nudges"] == nudges
        r_last = d["truncation_radius"]
        assert (r_last, d["lambda_root"]) in shoots
        lam = _eigenfunction_lam(eig)
        if nudges:
            # the root's shoot shows the trace is not positive; the nudge
            # is the one shoot the eigenfunction adds
            assert shoots[-1] == (r_last, lam)
        else:
            assert lam == d["lambda_root"]

    @pytest.mark.parametrize("p,nudges", [(2.0, 0), (3.0, 1)])
    def test_each_lambda_integrated_once(self, p, nudges, dual_instance, monkeypatch):
        ps = dual_instance(*CRITERION3[p])
        self._assert_each_lambda_integrated_once(
            lambda: S.find_lambda1(ps, check=False), nudges, monkeypatch)

    @pytest.mark.parametrize("name", LADDERS)
    def test_each_ladder_lambda_integrated_once(self, name, monkeypatch):
        self._assert_each_lambda_integrated_once(
            lambda: _solve_ladder(name), 0, monkeypatch)


class _ScipyOracle:
    """Runs scipy's ``solve_ivp`` beside the package's DOP853 driver on every
    segment a shoot integrates, and requires bit-identical results: ``t``,
    ``y``, ``nfev``, the status and the event against scipy's solve without
    dense output, and the dense output at every kept node against scipy's
    solve with it."""

    def __init__(self, monkeypatch):
        self.kinds, self.statuses, self.dense_points, self.rejected = set(), set(), 0, 0
        driver, integrate = S.solve_ivp, S._integrate_segment

        def both(fun, t_span, y0, nodes=None, **kw):
            ours = driver(fun, t_span, y0, nodes=nodes, **kw)

            def scipy_event(t, y):
                return y[0]

            scipy_event.terminal = True
            scipy_event.direction = -1
            kw = {**kw, "events": scipy_event}
            ref = scipy.integrate.solve_ivp(fun, t_span, y0, method="DOP853", **kw)
            assert np.array_equal(ours.t, ref.t)
            assert np.array_equal(ours.y, ref.y)
            assert ours.nfev == ref.nfev
            assert (ours.status, ours.success) == (ref.status, ref.success)
            for mine, theirs in [(ours.t_events, ref.t_events), (ours.y_events, ref.y_events)]:
                assert len(mine) == len(theirs) == 1
                assert np.array_equal(mine[0], theirs[0])
            # 2 evaluations to start, 12 per step tried, 3 for an event's
            # interpolant: the steps tried beyond those taken were rejected
            tried, rest = divmod(ours.nfev - 2 - 3 * (ours.status == 1), 12)
            assert rest == 0
            self.rejected += tried - (len(ours.t) - 1)
            assert (ours.dense is None) == (nodes is None)
            if nodes is not None:
                # every node up to the end, or the event root, is kept
                assert list(ours.dense.x) == [x for x in nodes if x <= ours.t[-1]]
                ours.dense = _CheckedDense(self, ours, lambda: scipy.integrate.solve_ivp(
                    fun, t_span, y0, method="DOP853", dense_output=True, **kw))
            self.statuses.add(ours.status)
            return ours

        def integrate_segment(ps, lam, seg, *args):
            in_log_offset = all(seg.fwd(r) == math.log(r - ps.R1) for r in (seg.s0, seg.s1))
            self.kinds.add("log(r - R1)" if in_log_offset else "other")
            return integrate(ps, lam, seg, *args)

        monkeypatch.setattr(S, "solve_ivp", both)
        monkeypatch.setattr(S, "_integrate_segment", integrate_segment)


class _CheckedDense:
    """A solve's ``dense``, compared with scipy's dense output when it is
    evaluated.  Evaluating it builds the interpolant of each step that holds
    a node: three RHS evaluations a step, outside ``nfev``, so scipy's dense
    solve counts ``nfev`` plus 3 for every step taken but the event step,
    whose interpolant both build while stepping."""

    def __init__(self, oracle, ours, scipy_dense):
        self.oracle, self.ours, self.scipy_dense = oracle, ours, scipy_dense
        self.dense = ours.dense
        self.x = self.dense.x

    def __call__(self):
        calls = itertools.count()
        fun = self.dense.fun

        def counted(t, y):
            next(calls)
            return fun(t, y)

        self.dense.fun = counted
        out = self.dense()
        ours, ref = self.ours, self.scipy_dense()
        holding = np.unique(np.clip(np.searchsorted(ours.t, self.x, side="left") - 1, 0, None))
        assert next(calls) == 3 * len(holding) == 3 * len(self.dense.steps)
        assert ref.nfev == ours.nfev + 3 * (len(ours.t) - 1 - (ours.status == 1))
        assert np.array_equal(out, ref.sol(self.x))
        self.oracle.dense_points += len(self.x)
        return out


class TestDop853Driver:
    """The driver must reproduce scipy's DOP853 bit for bit: ``==``, never a
    tolerance, so a scipy upgrade that changes its arithmetic shows here."""

    @pytest.mark.parametrize("p", sorted(CRITERION3))
    def test_shoots_bit_identical_to_scipy(self, p, dual_instance, monkeypatch):
        oracle = _ScipyOracle(monkeypatch)
        zeros = []
        # every segment, [2, 8] and [2, 20] included, integrates in log(r - R1);
        # lam = 0.2 has no zero, 2 a zero past r = 2, 30 a zero before it
        for r2, lam in [(8.0, 0.2), (8.0, 2.0), (20.0, 0.2), (20.0, 2.0), (20.0, 30.0)]:
            ps = dual_instance(*CRITERION3[p], r2=r2)
            res = S.shoot(_plan(ps, n_core=100, per_decade=4), lam)
            zeros.append(res.first_zero)
            assert res.dense
            S._trace(res)  # evaluates the dense output, which the oracle checks
        assert oracle.kinds == {"log(r - R1)"}
        assert oracle.statuses == {0, 1}
        assert oracle.dense_points > 0
        assert zeros[0] is None and zeros[1] > 2.0 and zeros[4] < 2.0

    @pytest.mark.parametrize("preset", ["ex62", "rmk22"])
    def test_matched_rung_bit_identical_to_scipy(self, preset, monkeypatch):
        """The R = 32 rung of the matched ladder integrates (1, 32) in one
        log(r - R1) segment, on which some steps are rejected and retried."""
        oracle = _ScipyOracle(monkeypatch)
        eig = S.find_lambda1(get_preset(preset).problem, ladder=[32.0], check=False,
                             bc="matched")
        assert [r for r, _ in eig.diagnostics["ladder"]] == [32.0]
        assert oracle.kinds == {"log(r - R1)"}
        assert oracle.statuses == {0, 1}
        assert oracle.rejected > 0
        assert oracle.dense_points > 0

    def test_oscillator_against_scipy(self):
        def rhs(t, y):
            return (y[1], -y[0])

        def event(t, y):
            return y[0]

        xs = np.linspace(0.0, 2.0, 50)
        for nodes in (None, xs):
            ours = S.solve_ivp(rhs, (0.0, 10.0), (1.0, 0.0), rtol=1e-9, atol=(1e-12, 1e-12),
                               nodes=nodes)
            event.terminal, event.direction = True, -1
            for dense in (False, True):
                ref = scipy.integrate.solve_ivp(rhs, (0.0, 10.0), (1.0, 0.0),
                                                method="DOP853", rtol=1e-9, atol=1e-12,
                                                dense_output=dense, events=event)
                assert ours.t_events[0][0] == ref.t_events[0][0]
                assert np.array_equal(ours.t, ref.t) and np.array_equal(ours.y, ref.y)
            assert ours.t_events[0][0] == pytest.approx(math.pi / 2, rel=1e-9)
            # scipy's dense solve builds an interpolant on every step taken;
            # ours only on the event step
            assert ours.nfev == ref.nfev - 3 * (len(ours.t) - 2)
            if nodes is not None:
                kept = xs[xs <= ours.t_events[0][0]]
                assert 0 < len(kept) < len(xs)
                assert np.array_equal(ours.dense.x, kept)
                assert np.array_equal(ours.dense(), ref.sol(kept))
            else:
                assert ours.dense is None

    def test_node_on_a_step_boundary_takes_the_earlier_step(self):
        """Nodes placed on the step boundaries themselves: each is evaluated
        on the step that ends there (the first on the first step), as
        scipy's ``OdeSolution`` does.  u = cos t has no zero on [0, 1.5]."""

        def rhs(t, y):
            return (y[1], -y[0])

        kw = dict(rtol=1e-9, atol=(1e-12, 1e-12))
        steps = S.solve_ivp(rhs, (0.0, 1.5), (1.0, 0.0), **kw).t
        ours = S.solve_ivp(rhs, (0.0, 1.5), (1.0, 0.0), nodes=steps, **kw)
        ref = scipy.integrate.solve_ivp(rhs, (0.0, 1.5), (1.0, 0.0), method="DOP853",
                                        rtol=1e-9, atol=1e-12, dense_output=True)
        assert ours.status == 0 and len(steps) > 3
        assert len(ours.dense.steps) == len(steps) - 1
        assert np.array_equal(ours.dense.x, steps)
        assert np.array_equal(ours.dense(), ref.sol(steps))

    def test_non_finite_derivative_raises(self):
        with pytest.raises(FloatingPointError):
            S.solve_ivp(lambda t, y: (y[0] * 1e300, 0.0), (0.0, 1.0), (1e10, 0.0), rtol=1e-6,
                        atol=(1e-9, 1e-9))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("stage", [1, 6, 12])
    def test_non_finite_stage_of_a_later_step_raises(self, stage, bad):
        """Evaluations 1 and 2 start the solve, then each step takes 12: the
        derivative is non-finite only at one stage of the third step tried."""
        calls = itertools.count(1)
        target = 2 + 2 * 12 + stage

        def rhs(t, y):
            return (bad if next(calls) == target else y[1], -y[0])

        with pytest.raises(FloatingPointError):
            S.solve_ivp(rhs, (0.0, 10.0), (1.0, 0.0), rtol=1e-9, atol=(1e-12, 1e-12))
        assert next(calls) == target + 1

    def test_tableau_equals_scipy(self):
        """The vendored tableau is scipy's, name for name and bit for bit."""
        names = {n for n in vars(dop853_coefficients) if n.isupper()}
        assert names == {n for n in vars(_dop853_tableau) if n.isupper()}
        assert names >= {"N_STAGES", "A", "B", "C", "D", "E3", "E5"}
        for name in names:
            ours, theirs = getattr(_dop853_tableau, name), getattr(dop853_coefficients, name)
            assert type(ours) is type(theirs)
            assert np.shape(ours) == np.shape(theirs)
            assert np.asarray(ours).dtype == np.asarray(theirs).dtype
            assert np.array_equal(ours, theirs)


EPS = sys.float_info.epsilon


def _calls(root_finder, f, a, b, **kw):
    """The root as ``float.hex`` and every point ``f`` was called at, or the
    type of the exception raised."""
    xs = []

    def logged(x):
        xs.append(float.hex(float(x)))
        return f(x)

    try:
        return float.hex(root_finder(logged, a, b, **kw)), xs
    except (ValueError, RuntimeError) as exc:
        return type(exc), xs


class TestBrentqPort:
    """The port must take scipy's iterates: its root and every point it
    evaluates are compared by ``float.hex`` with ``scipy.optimize.brentq``."""

    # the lam root's (xtol, rtol), scipy's defaults, and a coarse lam tolerance
    TOLS = [(1e-300, 1e-14), (2e-12, 4 * EPS), (1e-300, 1e-10)]

    def _assert_same(self, f, a, b, **kw):
        ours = _calls(brentq, f, a, b, **kw)
        assert ours == _calls(scipy.optimize.brentq, f, a, b, **kw)
        return ours

    @pytest.mark.parametrize("xtol,rtol", TOLS)
    def test_random_functions(self, xtol, rtol):
        rng = random.Random(8)
        for _ in range(150):
            c, s = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 10.0)
            a, b = c - rng.uniform(0.01, 5.0), c + rng.uniform(0.01, 5.0)
            if rng.random() < 0.5:
                a, b = b, a
            for f in (lambda x: s * (x - c) ** 3 + (x - c),
                      lambda x: math.tanh(s * (x - c)),
                      lambda x: math.exp(s * (x - c)) - 1.0,
                      lambda x: math.atan(x - c) * (x - c) ** 2 + 1e-9 * (x - c)):
                root, _ = self._assert_same(f, a, b, xtol=xtol, rtol=rtol)
                assert isinstance(root, str)

    @pytest.mark.parametrize("xtol,rtol", TOLS)
    def test_underflowing_differences(self, xtol, rtol):
        """Differences of values near 1e-300 underflow to 0, where C divides
        to inf or nan and bisects."""
        rng = random.Random(9)
        for _ in range(200):
            c = rng.uniform(-3.0, 3.0)
            a, b = c - rng.uniform(0.01, 5.0), c + rng.uniform(0.01, 5.0)
            self._assert_same(lambda x: 1e-300 * (x - c), a, b, xtol=xtol, rtol=rtol)
            self._assert_same(lambda x: 1e-300 * (x - c) ** 3, a, b, xtol=xtol, rtol=rtol)

    @pytest.mark.parametrize("xtol,rtol", TOLS)
    def test_step_function(self, xtol, rtol):
        for c in (0.1, 1 / 3, 0.7):
            root, _ = self._assert_same(lambda x: 1.0 if x > c else -1.0, 0.0, 1.0,
                                        xtol=xtol, rtol=rtol)
            assert float.fromhex(root) == pytest.approx(c, abs=xtol + rtol * c)

    def test_errors(self):
        same_sign = self._assert_same(lambda x: x * x + 1.0, -1.0, 2.0)
        assert same_sign[0] is ValueError
        # 1e-200 * 1e-200 underflows: the sign test must not multiply
        tiny = self._assert_same(lambda x: 1e-200, 0.0, 1.0)
        assert tiny[0] is ValueError
        nan = self._assert_same(lambda x: math.nan if 0.6 < x < 0.8 else x - 0.7, 0.0, 1.0)
        assert nan[0] is ValueError and len(nan[1]) > 2
        # a step at 0 with xtol=1e-300 bisects for about 1000 steps, so both
        # stop after the two ends and 100 iterations
        stuck = self._assert_same(lambda x: 1.0 if x > 0 else -1.0, -1.0, 2.0,
                                  xtol=1e-300, rtol=4 * EPS)
        assert stuck[0] is RuntimeError and len(stuck[1]) == 102
        for kw in ({"xtol": 0.0}, {"rtol": EPS}):
            with pytest.raises(ValueError):
                brentq(lambda x: x, -1.0, 1.0, **kw)

    def test_exact_zero_at_an_end(self):
        assert self._assert_same(lambda x: x - 1.0, 1.0, 3.0)[0] == float.hex(1.0)
        assert self._assert_same(lambda x: x - 3.0, 1.0, 3.0)[0] == float.hex(3.0)


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
        mesh = S.make_mesh(trivial_annulus, n_core=2000)
        eig = S.rayleigh_minimize(trivial_annulus, mesh)
        assert eig.lam == pytest.approx(PI2, rel=1e-3)
        assert eig.zero_count == 0

    @pytest.mark.parametrize("p", [1.2, 3.0])
    def test_p3_agreement(self, p):
        ps = make_annulus(N=1, p=p)
        eig_s = S.find_lambda1(ps, check=False)
        mesh = S.make_mesh(ps, n_core=2000)
        eig_r = S.rayleigh_minimize(ps, mesh)
        assert abs(eig_s.lam - eig_r.lam) / eig_s.lam < 1e-3
        assert not eig_r.diagnostics["stagnated"]
        lo, hi = eig_r.diagnostics["lambda_h_bounds"]
        assert hi - lo <= 1e-12 * lo

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


def _uniform_mesh(ps, n):
    """n equally spaced nodes on (R1, R2), plus the weight junctions."""
    h = (ps.R2 - ps.R1) / (n + 1)
    nodes = np.unique(np.concatenate([ps.R1 + h * np.arange(1, n + 1), ps.junctions]))
    return S.Mesh(nodes, ps.R1, ps.R2, h, h)


def _p2_matrix(kappa, dmass):
    """D^{-1/2} K D^{-1/2} of the p = 2 discrete quotient (dense)."""
    k = (np.diag(kappa[:-1] + kappa[1:])
         - np.diag(kappa[1:-1], 1) - np.diag(kappa[1:-1], -1))
    d = 1.0 / np.sqrt(dmass)
    return d[:, None] * k * d[None, :]


def _p2_count_below(kappa, dmass, x):
    """Eigenvalues of the p = 2 pencil (K, D) below x: the negative pivots of
    the LDL^T factorization of K - x D (Sylvester's inertia), in 50 digits."""
    mpf = mpmath.mpf
    with mpmath.workdps(50):
        x = mpf(x)
        piv, neg = None, 0
        for j in range(len(dmass)):
            a = mpf(kappa[j]) + mpf(kappa[j + 1]) - x * mpf(dmass[j])
            if piv is not None:
                a -= mpf(kappa[j]) ** 2 / piv
            neg += a < 0
            piv = a
        return neg


def _inverse_step_by_bisection(p, kappa, dmass, u):
    """The discrete inverse step with its flux constant bisected over
    [0, s[-1]] down to adjacent floats."""
    s = np.concatenate([[0.0], np.cumsum(dmass * u ** (p - 1.0))])

    def dv(c):
        f = (c - s) / kappa
        return np.sign(f) * np.abs(f) ** (1.0 / (p - 1.0))

    lo, hi = 0.0, float(s[-1])
    while True:
        c = 0.5 * (lo + hi)
        if c in (lo, hi):
            break
        if np.sum(dv(c)) < 0.0:
            lo = c
        else:
            hi = c
    d = dv(c)
    k = int(np.searchsorted(s, c))
    return np.concatenate([np.cumsum(d[:k]), -np.cumsum(d[:k:-1])[::-1]])


class TestInverseStep:
    @pytest.mark.parametrize("name", sorted(DUAL))
    def test_newton_lands_on_the_bisection_constant(self, name, dual_instance):
        """Newton inside the bracket ends on the same adjacent floats as
        bisection, so the step is bit-identical: from the envelope start,
        along the iteration, and from random positive vectors."""
        ps = dual_instance(*DUAL[name])
        mesh = S.make_mesh(ps, n_core=600)
        kappa, dmass = S._assemble(ps, mesh)
        rng = np.random.default_rng(3)
        u = S.envelope_hat(ps, mesh)
        starts = [u] + [rng.uniform(0.01, 1.0, mesh.n) for _ in range(3)]
        for u in starts:
            for _ in range(4):
                v = S._inverse_step(ps.p, kappa, dmass, u)
                assert np.array_equal(v, _inverse_step_by_bisection(ps.p, kappa, dmass, u))
                u = v / np.max(v)


class TestRayleighEnclosure:
    """The inverse iteration's two-sided bounds against independent oracles."""

    @pytest.fixture(params=["annulus-trivial", "p=2 singular"])
    def p2_problem(self, request, trivial_annulus, dual_instance):
        if request.param == "annulus-trivial":
            return trivial_annulus
        return dual_instance(2.0, 3, -0.5, -0.25, -4.0)

    def test_p2_matches_eigvalsh(self, p2_problem):
        # a uniform mesh keeps eps * ||A||, eigvalsh's own error, near 1e-12
        ps = p2_problem
        mesh = _uniform_mesh(ps, 100)
        kappa, dmass = S._assemble(ps, mesh)
        a = _p2_matrix(kappa, dmass)
        ev = float(np.linalg.eigvalsh(a)[0])
        eig = S.rayleigh_minimize(ps, mesh)
        lo, hi = eig.diagnostics["lambda_h_bounds"]
        slack = np.finfo(float).eps * float(np.max(np.sum(np.abs(a), axis=1)))
        assert lo - slack <= ev <= hi + slack
        assert abs(ev - eig.lam) <= 1e-12 * eig.lam
        assert lo <= eig.lam <= hi
        assert hi - lo <= 1e-12 * lo

    @pytest.mark.parametrize("graded", [False, True])
    def test_p2_bounds_enclose_the_pencil_eigenvalue(self, p2_problem, graded):
        # exact inertia counts, also on the graded mesh where eigvalsh's
        # error (eps times entries up to 1e19) exceeds 1e-9
        ps = p2_problem
        mesh = S.make_mesh(ps, n_core=600) if graded else _uniform_mesh(ps, 100)
        kappa, dmass = S._assemble(ps, mesh)
        lo, hi = S.rayleigh_minimize(ps, mesh).diagnostics["lambda_h_bounds"]
        assert _p2_count_below(kappa, dmass, lo) == 0
        assert _p2_count_below(kappa, dmass, hi) == 1

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_lower_bound_below_quotients(self, p, dual_instance):
        ps = dual_instance(*CRITERION3[p])
        mesh = S.make_mesh(ps, n_core=1200)
        eig = S.rayleigh_minimize(ps, mesh)
        lo, hi = eig.diagnostics["lambda_h_bounds"]
        assert lo <= eig.lam <= hi
        assert lo <= S.rayleigh_quotient(ps, mesh, S.envelope_hat(ps, mesh))
        eig_s = S.find_lambda1(ps, check=False)
        u_s = np.interp(mesh.nodes, eig_s.mesh.nodes, eig_s.u)
        assert lo <= S.rayleigh_quotient(ps, mesh, u_s)


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

    @pytest.mark.parametrize("ladder, applied", [([4.0, 8.0], False),
                                                 ([4.0, 8.0, 16.0], True)],
                             ids=["two rungs", "three rungs"])
    def test_richardson_is_reported(self, ex62, ladder, applied):
        eig = S.find_lambda1(ex62, ladder=ladder, check=False)
        d = eig.diagnostics
        assert d["richardson_applied"] is applied
        last = d["ladder"][-1][1]
        if applied:
            assert d["lambda_extrapolated"] < last
        else:
            assert d["lambda_extrapolated"] == last


class TestMesh:
    def test_strictly_increasing_and_offsets(self, trivial_annulus):
        mesh = S.make_mesh(trivial_annulus, n_core=300)
        assert np.all(np.diff(mesh.nodes) > 0)
        assert mesh.nodes[0] - 1.0 <= mesh.delta_left + 1e-12
        assert 2.0 - mesh.nodes[-1] <= mesh.delta_right + 1e-12

    def test_junctions_are_nodes(self, ex61):
        mesh = S.make_mesh(ex61.truncated(8.0), n_core=300)
        assert np.any(np.isclose(mesh.nodes, 2.0, rtol=0, atol=1e-12))

    def test_refuses_an_exterior_problem(self, ex62):
        with pytest.raises(S.SolverError, match="finite R2"):
            S.make_mesh(ex62)


class TestShootingSetUp:
    """A root's set-up is read from its mesh alone: the segments run from
    the mesh's first node, R1 + delta_left, to its end, split at the weight
    junctions, and between them hold every mesh node once."""

    @pytest.fixture(params=["annulus-trivial", "ex61 R=8", "rmk23 R=8", "rmk23 R=2.5",
                            "p=3 degenerate R=20"])
    def problem(self, request, dual_instance):
        name = request.param
        if name.startswith("p=3"):
            return dual_instance(*CRITERION3[3.0], r2=20.0)
        preset, _, r = name.partition(" R=")
        ps = get_preset(preset).problem
        return ps.truncated(float(r)) if r else ps

    def test_segments_span_the_mesh(self, problem):
        plan = _plan(problem)
        mesh, segs = plan.mesh, plan.segments
        assert segs[0].s0 == mesh.nodes[0] == problem.R1 + mesh.delta_left
        assert segs[-1].s1 == mesh.r_end == problem.R2
        assert all(a.s1 == b.s0 for a, b in zip(segs, segs[1:]))
        assert [seg.s0 for seg in segs[1:]] == list(problem.junctions)
        assert np.array_equal(np.concatenate([seg.r_nodes for seg in segs]), mesh.nodes)
        assert all(seg.x_nodes == [seg.fwd(r) for r in seg.r_nodes] for seg in segs)
