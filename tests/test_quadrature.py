import math

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from radial_plap import quadrature as quad
from radial_plap.quadrature import (
    CONVERGED,
    DIVERGES,
    INCONCLUSIVE,
    LeftCumulative,
    RightCumulative,
    integrate,
    interval_integrals,
)
from radial_plap.weights import INF, PowerLogPiece, WeightModel


class TestIntegrate:
    def test_inverse_sqrt(self):
        res = integrate(lambda r: (r - 1.0) ** -0.5, 1.0, 2.0)
        assert res.verdict == CONVERGED
        assert res.value == pytest.approx(2.0, abs=1e-10)

    def test_tail(self):
        res = integrate(lambda r: r**-2, 2.0, INF)
        assert res.verdict == CONVERGED
        assert res.value == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("e, exact", [(-1.1, 10.0), (-1.01, 100.0)])
    def test_offset_octaves_on_a_radius_power_tail(self, e, exact):
        """(1 + t)^e over the offsets t from R1 = 1: octaves of t drift like
        2^-k on a power of r, and the second Δ² step takes their limit
        (about 1,000 points without it)."""
        res = integrate(lambda t: (1.0 + t) ** e, 0.0, INF, tol=1e-8)
        assert res.verdict == CONVERGED
        assert res.value == pytest.approx(exact, rel=1e-9)
        assert res.evaluations < 800

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("m", range(2, 11))
    @pytest.mark.parametrize("a, b", [(2.0, INF), (0.0, 0.5)])
    def test_log_tail_is_never_certified_beyond_tol(self, a, b, m, tol):
        """1/(r log^m r) on (2, inf) and 1/(t |log t|^m) on (0, 1/2), whose
        shell ratios creep to 1 like 1 - m/k, so the ratio drift bounds
        nothing: a result is converged only within tol of the closed form
        1/((m - 1) log(2)^(m - 1)) and within its own error estimate, and an
        inconclusive one keeps its extrapolated tail, with an error estimate
        that covers its error (a drift bound trusted here read m = 3 on
        (2, inf) converged at tol 1e-8, 6.2e-7 off, estimating 4.7e-9; a Δ²
        step trusted while its ratio crept to 1 read m = 5 converged at tol
        1e-6, 7.1e-7 off, estimating 3.3e-7)."""
        exact = 1.0 / ((m - 1) * math.log(2.0) ** (m - 1))
        res = integrate(lambda x: 1.0 / (x * np.abs(np.log(x)) ** m), a, b, tol=tol)
        err = abs(res.value - exact)
        assert err <= res.abs_error_estimate
        if res.converged:
            assert err <= tol * (1.0 + exact)
        else:
            assert res.verdict == INCONCLUSIVE
            assert err <= (2e-3 if m == 2 else 1e-5) * exact

    def test_log_endpoint_diverges(self):
        res = integrate(lambda r: (r - 1.0) ** -1, 1.0, 2.0)
        assert res.verdict == DIVERGES
        assert res.value == INF

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_tol_outside_its_domain_raises(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            integrate(lambda r: r, 1.0, 2.0, tol=tol)

    def test_budget_reported(self, monkeypatch):
        monkeypatch.setattr(quad, "_BUDGET", 30)
        res = integrate(lambda r: (r - 1.0) ** -0.5, 1.0, 2.0)
        assert res.verdict == "inconclusive"

    def test_evaluation_count(self):
        res = integrate(lambda r: np.cos(r), 0.0, 1.0)
        assert 0 < res.evaluations < 10_000
        assert res.value == pytest.approx(math.sin(1.0), abs=1e-10)

    @pytest.mark.parametrize("b", [2.0, INF])
    def test_integrand_receives_arrays(self, b):
        sizes = []

        def f(r):
            assert isinstance(r, np.ndarray) and r.ndim == 1
            sizes.append(r.size)
            return (r - 1.0) ** -0.5 * r**-2

        res = integrate(f, 1.0, b)
        assert res.verdict == CONVERGED
        assert res.evaluations == sum(sizes)
        assert len(sizes) * 10 < res.evaluations  # whole GK21 panels per call

    def test_budget_counts_points_before_evaluating(self, monkeypatch):
        monkeypatch.setattr(quad, "_BUDGET", 50)
        seen = []

        def f(r):
            seen.append(r.size)
            return np.cos(r)

        res = integrate(f, 0.0, 1.0)
        assert res.verdict == "inconclusive"
        assert sum(seen) <= 50 < res.evaluations


#: on (1, 2) the core panel is [1.25, 1.75]: 1.5004 lies between its middle
#: GK21 nodes, so the first estimate sees a jump or kink there, but after one
#: bisection it sits 4e-4 inside [1.5, 1.75], whose first node is 5.4e-4 in
SLIVER = 1.5004


class TestPoints:
    @pytest.mark.parametrize("f, exact", [
        (lambda r: np.where(r < SLIVER, 1.0, 2.0), (SLIVER - 1.0) + 2.0 * (2.0 - SLIVER)),
        (lambda r: np.maximum(r - SLIVER, 0.0), 0.5 * (2.0 - SLIVER) ** 2),
    ], ids=["jump", "kink"])
    def test_sliver_breakpoint(self, f, exact):
        tol = 1e-10
        blind = integrate(f, 1.0, 2.0, tol=tol)
        split = integrate(f, 1.0, 2.0, tol=tol, points=[SLIVER])
        # without the point both halves look smooth, and the error goes unseen
        assert blind.verdict == CONVERGED
        assert abs(blind.value - exact) > tol * (1.0 + exact)
        assert split.verdict == CONVERGED
        assert abs(split.value - exact) <= tol * (1.0 + exact)
        assert split.evaluations < blind.evaluations

    def test_points_outside_the_interval_are_ignored(self):
        f = lambda r: np.cos(r)
        res = integrate(f, 0.0, 1.0, points=[-1.0, 0.0, 1.0, 5.0, INF])
        assert res == integrate(f, 0.0, 1.0)

    @pytest.mark.parametrize("b", [2.0, INF])
    def test_shells_start_clear_of_a_point_near_the_endpoint(self, b):
        """A jump 3e-3 from a power endpoint sits inside the first shells;
        they now start at the halving of d just below it."""
        x = 1.003
        f = lambda r: (r - 1.0) ** -0.5 * np.where(r < x, 1.0, 2.0) * r**-2.0
        with mp.workdps(30):
            g = lambda r: (r - 1) ** mp.mpf(-0.5) * r**-2
            exact = float(mp.quad(g, [1, x]) + 2 * mp.quad(g, [x, 2, b]))
        res = integrate(f, 1.0, b, points=[x])
        assert res.verdict == CONVERGED
        assert res.value == pytest.approx(exact, rel=1e-10)


GAMMA_SWEEP = [-2.0, -1.5, -1.0, -0.999, -0.5, 0.0]


class TestDivergenceSweep:
    @pytest.mark.parametrize("gamma", GAMMA_SWEEP)
    def test_verdict_matches_exponent_test(self, gamma):
        res = integrate(lambda r, g=gamma: (r - 1.0) ** g, 1.0, 2.0)
        if gamma <= -1.0:
            assert res.verdict == DIVERGES
        else:
            assert res.verdict == CONVERGED
            assert res.value == pytest.approx(1.0 / (gamma + 1.0), rel=1e-9)

    @pytest.mark.parametrize("gamma", GAMMA_SWEEP)
    def test_right_endpoint_verdict_matches_exponent_test(self, gamma):
        # the singularity at b goes through the far-side shells
        res = integrate(lambda r, g=gamma: (2.0 - r) ** g, 1.0, 2.0)
        if gamma <= -1.0:
            assert res.verdict == DIVERGES
        else:
            assert res.verdict == CONVERGED
            assert res.value == pytest.approx(1.0 / (gamma + 1.0), rel=1e-10)


class TestExactPowerlog:
    def test_boundary_exponent_diverges(self):
        m = WeightModel((PowerLogPiece(1.0, 2.0, 1.0, -1.0),), 1.0)
        phi = LeftCumulative(m)
        assert phi.divergent and phi(2.0) == INF

    def test_log_tail_closed_form(self):
        m = WeightModel((PowerLogPiece(3.0, INF, 1.0, 0.0, -1.0, -2.0),), 3.0)
        psi = RightCumulative(m)
        assert not psi.divergent
        assert psi(3.0) == pytest.approx(1.0 / math.log(3.0), rel=1e-12)

    def test_mild_singularity_converges(self):
        m = WeightModel((PowerLogPiece(1.0, 2.0, 1.0, -0.5),), 1.0)
        phi = LeftCumulative(m)
        assert not phi.divergent
        assert phi(2.0) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("gamma", GAMMA_SWEEP)
    def test_gamma_sweep_exact(self, gamma):
        m = WeightModel((PowerLogPiece(1.0, 2.0, 1.0, gamma),), 1.0)
        assert LeftCumulative(m).divergent == (gamma <= -1.0)

    def test_tail_one_rounding_from_critical_matches_closed_form(self):
        """A tail exponent one ulp below -1 decays at the rate 2^-52: its
        panels start at the cap of 4096, where they used to be refused
        (value NaN), and land on the closed forms."""
        value, err, evaluations = quad._tail_gl(1.0, 0.0, -1.0 - 2.0**-52, 0.0, 2.0, 4.0)
        assert value == pytest.approx(4.0 ** -2.0**-52 / 2.0**-52, rel=1e-15)
        assert err < 1e-15 * value and evaluations > 0
        # (r-1)^-0.25 r^-0.7500000000000002: the tail sums to -1 - 2^-52, and
        # Ψ(r) is the incomplete beta B(1/r; 2^-52, 3/4)
        m = WeightModel((PowerLogPiece(1.0, INF, 1.0, -0.25, -0.75 - 2.0**-52),), 1.0)
        kappa = mp.mpf(2) ** -52
        with mp.workdps(40):
            full = float(mp.beta(kappa, 0.75))
            half = float(mp.betainc(kappa, 0.75, 0, 0.5))
        psi = RightCumulative(m)
        assert not psi.divergent
        assert psi(1.0) == pytest.approx(full, rel=1e-15)
        assert psi(2.0) == pytest.approx(half, rel=1e-15)

    @pytest.mark.parametrize("kappa", [1e-2, 1e-3, 1e-4])
    def test_slow_tail_matches_incomplete_beta(self, kappa):
        """(r-1)^-0.5 r^(-0.5-kappa) on (1, inf), the ρ^{1-p'} of v = (r-1)^0.5
        r^(kappa-1.5) with N = 3 and p = 2: a tail slower than about 0.022
        asks for more first-pass panels than the cap, and used to give NaN.
        Ψ(2) = B(1/2; kappa, 1/2)."""
        m = WeightModel((PowerLogPiece(1.0, INF, 1.0, -0.5, -0.5 - kappa),), 1.0)
        with mp.workdps(30):
            ref = float(mp.betainc(kappa, 0.5, 0, 0.5))
        psi = RightCumulative(m)
        assert not psi.divergent
        assert psi.at(1.0) == pytest.approx(ref, rel=1e-10)
        assert psi(2.0) == pytest.approx(ref, rel=1e-10)
        assert psi(np.array([2.0, 3.0]))[0] == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("x0, a, b, l", [(3.0, 0.5, -1.5, -2.0),
                                             (2.0, -0.5, -0.5, -1.5),
                                             (5.0, 2.0, -3.0, -3.0)])
    def test_critical_log_tail_matches_mpmath(self, x0, a, b, l):
        """a + b = -1 leaves the tail (1 - e^-s)^a s^l in s = log r, which
        converges only through its log power l < -1."""
        m = WeightModel((PowerLogPiece(x0, INF, 1.0, a, b, l),), 1.0)
        psi = RightCumulative(m)
        for r in (x0, 4.0 * x0):
            with mp.workdps(30):
                ref = float(mp.quad(lambda s: (1 - mp.exp(-s)) ** a * s**l,
                                    [mp.log(r), mp.inf]))
            assert not psi.divergent
            assert psi.at(r - 1.0) == pytest.approx(ref, rel=1e-13)
            assert psi(r) == pytest.approx(ref, rel=1e-13)


def _random_powerlog(rng):
    """A convergent single-piece model, sometimes with a tail or log factor."""
    kind = rng.integers(0, 3)
    c = 10.0 ** rng.uniform(-1.5, 1.5)
    if kind == 0:  # finite with a left singularity
        a = rng.uniform(-0.9, 2.0)
        b = rng.uniform(-2.0, 2.0)
        return WeightModel((PowerLogPiece(1.0, 3.0, c, a, b),), 1.0)
    if kind == 1:  # plain tail
        e = rng.uniform(-4.0, -1.3)
        return WeightModel((PowerLogPiece(2.0, INF, c, 0.0, e),), 1.0)
    # log-corrected tail, exponent clear of the -1 boundary
    e = rng.uniform(-4.0, -1.4)
    l = rng.uniform(-2.0, 2.0)
    return WeightModel((PowerLogPiece(2.0, INF, c, 0.0, e, l),), 1.0)


class TestAgreement:
    def test_fifty_random_integrals(self):
        # the generic route promises |err| <= tol (1 + |value|); normalizing
        # the integrand to a unit-sized integral makes that a relative bound
        rng = np.random.default_rng(2024)
        for _ in range(50):
            m = _random_powerlog(rng)
            psi = RightCumulative(m)
            assert not psi.divergent
            exact = psi(m.lo_domain)
            scale = abs(exact)
            generic = integrate(lambda r: m(r) / scale, m.lo_domain,
                                m.r2, tol=4e-9)
            assert generic.verdict == CONVERGED, (m.pieces, generic)
            assert generic.value * scale == pytest.approx(exact, rel=1e-8)


class TestMonotonicity:
    def test_nonneg_integrand_monotone_in_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a_exp = rng.uniform(-0.8, 1.5)
            f = lambda r, ae=a_exp: (r - 1.0) ** ae
            full = integrate(f, 1.0, 3.0).value
            for c in (1.5, 2.0, 2.5, 3.0):
                part = integrate(f, 1.0, c).value
                assert part <= full * (1 + 1e-12)


class TestCumulatives:
    def test_left_cumulative_matches_quad(self):
        m = WeightModel((PowerLogPiece(1.0, INF, 1.0, -0.5, -2.0),), 1.0)
        phi = LeftCumulative(m)
        for r in (1.001, 1.5, 4.0, 30.0):
            ref, _ = scipy.integrate.quad(
                lambda t: (t - 1.0) ** -0.5 * t**-2.0, 1.0, r, points=[1.0]
            )
            assert phi(r) == pytest.approx(ref, rel=1e-9)

    def test_right_cumulative_matches_closed_form(self):
        # antiderivative via t = sqrt(r-1): F = t/(1+t^2) + atan t
        m = WeightModel((PowerLogPiece(1.0, INF, 1.0, -0.5, -2.0),), 1.0)
        psi = RightCumulative(m)
        for r in (1.5, 4.0, 30.0):
            t = math.sqrt(r - 1.0)
            ref = math.pi / 2.0 - (t / (1.0 + t * t) + math.atan(t))
            assert psi(r) == pytest.approx(ref, rel=1e-11)

    def test_divergent_flags(self):
        heavy = WeightModel((PowerLogPiece(1.0, INF, 1.0, -1.5, 0.0),), 1.0)
        assert LeftCumulative(heavy).divergent
        assert LeftCumulative(heavy)(2.0) == INF
        slow = WeightModel((PowerLogPiece(1.0, INF, 1.0, 0.0, -1.0),), 1.0)
        assert RightCumulative(slow).divergent

    def test_interval_integrals_sum_to_total(self):
        m = WeightModel(
            (PowerLogPiece(1.0, 2.0, 1.0, -0.25), PowerLogPiece(2.0, 6.0, 1.0, 0.0, -3.0)),
            1.0,
        )
        edges = np.concatenate([[1.0], np.geomspace(1.0 + 1e-8, 6.0, 200)])
        parts = interval_integrals(m, edges)
        total = LeftCumulative(m)(6.0)
        assert np.sum(parts) == pytest.approx(total, rel=1e-10)


class TestLevelBracket:
    """v = 1, N = 3, p = 2 on (1, inf): rho^(1-p') = r^-2, so the right
    envelope is 1/r, whose 1e-3 level lies at r = 1000."""

    PSI = RightCumulative(WeightModel((PowerLogPiece(1.0, INF, 1.0, 0.0, -2.0),), 1.0))

    @pytest.mark.parametrize("rel", [1e-4, 1e-12])
    @pytest.mark.parametrize("lo, hi", [(2.0, 2.0), (1.5, 3.0), (1.5, 5000.0), (2.0, 1e6)])
    def test_holds_the_closed_form_level(self, lo, hi, rel):
        lo, hi = quad.level_bracket(self.PSI, 1e-3, lo, hi, rel=rel, increasing=False)
        assert lo <= 1000.0 <= hi
        assert hi / lo < 1.0 + rel

    def test_increasing_envelope(self):
        phi = LeftCumulative(WeightModel((PowerLogPiece(1.0, INF, 1.0, 0.0, -2.0),), 1.0))
        lo, hi = quad.level_bracket(phi, 1.0 - 1e-3, 2.0, 2.0, rel=1e-12)
        assert lo <= 1000.0 <= hi < lo * (1.0 + 1e-12)

    def test_level_reached_at_lo_keeps_lo(self):
        lo, hi = quad.level_bracket(self.PSI, 1e-3, 2000.0, 4000.0, rel=1e-12,
                                    increasing=False)
        assert lo == 2000.0
        assert hi / lo < 1.0 + 1e-12

    def test_doubling_stops_at_top(self):
        lo, hi = quad.level_bracket(self.PSI, 1e-3, 2.0, 3.0, rel=1e-12,
                                    increasing=False, top=500.0)
        assert hi == 500.0
        assert hi / lo < 1.0 + 1e-12


# ---------------------------------------------------------------------------
# the offset-coordinate panel kernel behind the envelopes
# ---------------------------------------------------------------------------


def _mp_left(c, a, b, r1, t):
    """∫_0^t c s^a (r1+s)^b ds at 30 digits (hypergeometric closed form)."""
    with mp.workdps(30):
        a, b, r1, t = (mp.mpf(x) for x in (a, b, r1, t))
        return c * r1**b * t ** (a + 1) / (a + 1) * mp.hyp2f1(-b, a + 1, a + 2, -t / r1)


def _mp_total(c, a, b, r1):
    """∫_0^inf c s^a (r1+s)^b ds at 30 digits (needs a > -1, a + b < -1)."""
    with mp.workdps(30):
        a, b, r1 = mp.mpf(a), mp.mpf(b), mp.mpf(r1)
        return c * r1 ** (a + b + 1) * mp.beta(a + 1, -a - b - 1)


def _offset(r, r1):
    with mp.workdps(30):
        return mp.mpf(r) - mp.mpf(r1)


MODELS = {
    "two pieces": WeightModel(
        (PowerLogPiece(1.0, 2.0, 1.0, -0.5, -2.0),
         PowerLogPiece(2.0, 8.0, 0.25, 0.0, -3.0)), 1.0),
    "log tail": WeightModel(
        (PowerLogPiece(1.0, 3.0, 2.0, 0.5, -1.0),
         PowerLogPiece(3.0, INF, 1.5, 0.0, -2.5, 1.5)), 1.0),
    "regular start": WeightModel(
        (PowerLogPiece(1.5, 2.5, 1.0, -0.7, 1.0),
         PowerLogPiece(2.5, 4.0, 3.0, 0.0, 0.0, -0.5)), 1.0),
    "singular log start": WeightModel(
        (PowerLogPiece(2.0, 5.0, 1.0, -0.6, -1.5, 2.0),
         PowerLogPiece(5.0, INF, 1.0, 1.0, -4.0, -1.0)), 2.0),
}


def _queries(model):
    """Unsorted queries with duplicates, junctions and points near R1."""
    lo = model.lo_domain
    hi = model.r2 if math.isfinite(model.r2) else 4.0 * model.breakpoints()[-2] + 1.0
    rng = np.random.default_rng(7)
    base = lo + (hi - lo) * rng.uniform(0.0, 1.0, 40) ** 3
    near = lo + np.array([1e-12, 3e-9, 1e-6])
    junctions = np.array(model.breakpoints()[1:-1])
    q = np.concatenate([base, near, junctions, junctions, base[:5]])
    return q[rng.permutation(len(q))]


class TestOffsetKernel:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_left_array_matches_scalar_calls(self, name):
        model = MODELS[name]
        phi = LeftCumulative(model)
        q = _queries(model)
        arr = phi(q)
        ref = np.array([phi(float(r)) for r in q])
        assert arr.shape == q.shape
        np.testing.assert_allclose(arr, ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_right_array_matches_scalar_calls(self, name):
        model = MODELS[name]
        psi = RightCumulative(model)
        q = _queries(model)
        arr = psi(q)
        ref = np.array([psi(float(r)) for r in q])
        np.testing.assert_allclose(arr, ref, rtol=1e-13, atol=0.0)

    def test_array_keeps_shape_and_order(self):
        phi = LeftCumulative(MODELS["two pieces"])
        q = np.array([[3.0, 1.5], [1.5, 1.0 + 1e-9]])
        out = phi(q)
        assert out.shape == (2, 2)
        assert out[0, 1] == out[1, 0]
        assert out[1, 1] < out[0, 1] < out[0, 0]

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(-0.95, 3.0), b=st.floats(-4.0, 3.0), r1=st.floats(0.25, 4.0),
        logt=st.lists(st.floats(-12.0, 0.7), min_size=1, max_size=6),
    )
    def test_left_matches_mpmath(self, a, b, r1, logt):
        c = 1.7
        model = WeightModel((PowerLogPiece(r1, r1 * 8.0, c, a, b),), r1)
        phi = LeftCumulative(model)
        q = r1 + r1 * 10.0 ** np.array(logt)
        got = [phi(q), np.array([phi(float(r)) for r in q])]
        for k, r in enumerate(q):
            ref = _mp_left(c, a, b, r1, _offset(r, r1))
            for vals in got:
                assert abs(vals[k] - ref) <= 1e-12 * ref, (k, float(vals[k]), ref)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(-0.95, 3.0), gap=st.floats(0.1, 3.0), r1=st.floats(0.25, 4.0),
        logt=st.lists(st.floats(-12.0, 0.7), min_size=1, max_size=6),
    )
    def test_right_tail_matches_mpmath(self, a, gap, r1, logt):
        c, b = 0.6, -(a + 1.0) - gap
        model = WeightModel((PowerLogPiece(r1, INF, c, a, b),), r1)
        psi = RightCumulative(model)
        q = r1 + r1 * 10.0 ** np.array(logt)
        got = [psi(q), np.array([psi(float(r)) for r in q])]
        total = _mp_total(c, a, b, r1)
        for k, r in enumerate(q):
            with mp.workdps(30):
                ref = total - _mp_left(c, a, b, r1, _offset(r, r1))
            for vals in got:
                assert abs(vals[k] - ref) <= 1e-12 * ref, (k, float(vals[k]), ref)

    @pytest.mark.parametrize("a,b", [(-0.5, -2.0), (0.5, -1.0), (-0.9, 1.5), (2.0, -4.0)])
    def test_interval_cells_near_r1_match_mpmath(self, a, b):
        r1 = 1.0
        model = WeightModel((PowerLogPiece(1.0, 3.0, 1.0, a, b),), r1)
        edges = r1 + np.geomspace(1e-12, 1e-10, 9)
        edges = np.concatenate([[r1], edges, [1.5, 3.0]])
        parts = interval_integrals(model, edges)
        for k in range(len(edges) - 1):
            with mp.workdps(30):
                ref = (_mp_left(1.0, a, b, r1, _offset(edges[k + 1], r1))
                       - _mp_left(1.0, a, b, r1, _offset(edges[k], r1)))
            assert abs(parts[k] - ref) <= 1e-12 * ref, (k, float(parts[k]), ref)
