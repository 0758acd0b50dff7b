import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radial_plap.presets import PRESET_NAMES, get_preset
from radial_plap.weights import (
    FINITE,
    INF,
    INFINITE,
    INFINITY,
    LEFT_R1,
    RIGHT_R2,
    ZERO,
    DomainError,
    PowerLogPiece,
    ProblemSpec,
    SpecError,
    WeightModel,
    eps_infimum,
    far_integral,
    limit,
    local_exponents,
    magnitude,
    mul,
    near_integral,
    problem_from_dict,
    problem_to_dict,
)


def model(*pieces, r1=1.0):
    return WeightModel(tuple(pieces), r1)


class TestEvalWeight:
    def test_unit_base(self):
        wm = model(PowerLogPiece(1.0, INF, 1.0, 0.5))
        assert wm(2.0) == 1.0

    def test_reciprocal_distance(self):
        # w = (r-1)^{-1}: value 2 at r = 1.5
        wm = model(PowerLogPiece(1.0, INF, 1.0, -1.0))
        assert wm(1.5) == pytest.approx(2.0, rel=1e-15)

    def test_constant(self):
        wm = model(PowerLogPiece(1.0, 5.0, 3.0))
        for r in (1.1, 2.0, 4.9):
            assert wm(r) == 3.0

    def test_junction_takes_right_piece(self):
        wm = model(PowerLogPiece(1.0, 2.0, 1.0), PowerLogPiece(2.0, 3.0, 7.0))
        assert wm(2.0) == 7.0

    @pytest.mark.parametrize("k", [1, 30, 60, 200, 1000])
    def test_piece_at_offsets_far_below_every_radius(self, k):
        # at t = 2^-k, R1 + t rounds to R1 = 1 for k > 52; the offset itself
        # keeps every digit, so the value is c t^a (1+t)^b to rounding
        piece = PowerLogPiece(1.0, INF, 0.7, -0.75, 2.5)
        t = 2.0**-k
        with mp.workdps(30):
            ref = 0.7 * mp.mpf(t) ** -0.75 * (1 + mp.mpf(t)) ** 2.5
        assert float(piece.value(t, 1.0)) == pytest.approx(float(ref), rel=1e-15)
        assert model(piece).at(t) == float(piece.value(t, 1.0))

    def test_call_at_radii_is_at_offsets(self):
        wm = model(PowerLogPiece(1.0, 2.0, 1.3, 0.5, -1.0), PowerLogPiece(2.0, 3.0, 2.0))
        r = np.array([1.25, 1.5, 2.0, 2.75])
        assert np.array_equal(wm(r), wm.at(r - 1.0))

    def test_domain_error(self):
        wm = model(PowerLogPiece(1.0, 2.0, 1.0))
        with pytest.raises(DomainError):
            wm(1.0)
        with pytest.raises(DomainError):
            wm(2.5)
        with pytest.raises(DomainError):
            wm.at(0.0)


class TestRhoSigma:
    def test_dimension_factor(self):
        one = WeightModel.constant(1.0, 1.0, 3.0)
        ps = ProblemSpec(N=3, p=2.0, R1=1.0, R2=3.0, v=one, w=one)
        assert ps.rho_model(2.0) == pytest.approx(4.0)
        assert ps.sigma_model(2.0) == pytest.approx(4.0)

    def test_dimension_one_reduction(self):
        vm = model(PowerLogPiece(1.0, 3.0, 2.5, 0.7))
        ps = ProblemSpec(N=1, p=2.0, R1=1.0, R2=3.0, v=vm, w=vm)
        for r in (1.3, 2.2):
            assert ps.rho_model(r) == pytest.approx(vm(r))

    def test_product_evaluation(self):
        vm = model(PowerLogPiece(1.0, 3.0, 1.0, 1.0))
        ps = ProblemSpec(N=3, p=2.0, R1=1.0, R2=3.0, v=vm, w=vm)
        # r^2 (r-1) at r = 2
        assert ps.rho_model(2.0) == pytest.approx(4.0)


class TestRhoConjPower:
    def test_p2_reciprocal(self):
        vm = model(PowerLogPiece(1.0, 3.0, 2.0, 0.5))
        ps = ProblemSpec(N=2, p=2.0, R1=1.0, R2=3.0, v=vm, w=vm)
        r = 1.7
        assert ps.rho_conj_model(r) == pytest.approx(1.0 / ps.rho_model(r), rel=1e-14)

    def test_p3_half_power(self):
        # rho = 8 => rho^{1-p'} = 8^{-1/2}
        vm = model(PowerLogPiece(1.0, 3.0, 8.0))
        ps = ProblemSpec(N=1, p=3.0, R1=1.0, R2=3.0, v=vm, w=vm)
        assert ps.rho_conj_model(2.0) == pytest.approx(8.0**-0.5, rel=1e-14)
        assert ps.rho_conj_model(2.0) == pytest.approx(0.35355339059327373)

    def test_unit_rho_fixed(self):
        one = WeightModel.constant(1.0, 1.0, 2.0)
        for p in (1.5, 2.0, 3.0, 7.5):
            ps = ProblemSpec(N=1, p=p, R1=1.0, R2=2.0, v=one, w=one)
            assert ps.rho_conj_model(1.5) == 1.0


class TestLocalExponents:
    def test_left(self):
        wm = model(PowerLogPiece(1.0, INF, 1.0, 0.5))
        assert local_exponents(wm, "left_R1") == (0.5, 0.0)

    def test_tail_power(self):
        wm = model(PowerLogPiece(1.0, INF, 1.0, 0.0, -4.0))
        assert local_exponents(wm, "infinity") == (-4.0, 0.0)

    def test_tail_log(self):
        # the [r log r]^{N-1}-type integrand, N = 3
        wm = model(PowerLogPiece(3.0, INF, 1.0, 0.0, 2.0, 2.0), r1=1.0)
        assert local_exponents(wm, "infinity") == (2.0, 2.0)


class TestMagnitudes:
    def test_finite_right_regular(self):
        wm = model(PowerLogPiece(1.0, 2.0, 1.0, -0.5))
        m = magnitude(wm, RIGHT_R2)
        assert m == (0.0, 0.0, 0.0)
        assert near_integral(m, RIGHT_R2) == (1.0, 0.0, 0.0)
        assert far_integral(m, RIGHT_R2) == (0.0, 0.0, 0.0)

    def test_tail_reads_in_the_reciprocal_distance(self):
        # r^-3 (log r)^2 = d^3 |log d|^2 with d = 1/r; ∫_r^inf ~ d^2 |log d|^2
        wm = model(PowerLogPiece(2.0, INF, 1.0, 0.0, -3.0, 2.0), r1=1.0)
        m = magnitude(wm, INFINITY)
        assert m == (3.0, 2.0, 0.0)
        assert near_integral(m, INFINITY) == (2.0, 2.0, 0.0)
        assert far_integral(m, INFINITY) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("log, near, far", [
        (-1.1, (0.0, -0.10000000000000009, 0.0), (0.0, 0.0, 0.0)),
        (-1.0, None, (0.0, 0.0, 1.0)),
        (-0.9, None, (0.0, 0.09999999999999998, 0.0)),
    ])
    def test_critical_power_goes_to_the_logs(self, log, near, far):
        m = (1.0, log, 0.0)  # r^-1 (log r)^log at infinity
        assert near_integral(m, INFINITY) == near
        assert far_integral(m, INFINITY) == far

    def test_one_ulp_off_critical_is_not_critical(self):
        # -E - 2 would round E one ulp above -1 onto -1; the algebra never
        # forms it, so the log factor cannot rescue a divergent tail
        above, below = np.nextafter(-1.0, 0.0), np.nextafter(-1.0, -2.0)
        for E, log, ok in ((above, -5.0, False), (below, 5.0, True), (-1.0, -1.5, True)):
            wm = model(PowerLogPiece(2.0, INF, 1.0, 0.0, E, log))
            assert (near_integral(magnitude(wm, INFINITY), INFINITY) is not None) is ok
        for a, ok in ((above, True), (-1.0, False), (below, False)):
            m = magnitude(model(PowerLogPiece(1.0, 2.0, 1.0, a)), LEFT_R1)
            assert (near_integral(m, LEFT_R1) is not None) is ok

    def test_limit_and_product(self):
        loglog = far_integral((1.0, -1.0, 0.0), INFINITY)
        assert limit(loglog) == INFINITE
        assert limit(mul(loglog, (0.0, -0.1, 0.0))) == ZERO
        assert limit(mul(loglog, (0.0, 0.0, -0.5), 2.0)) == FINITE
        assert limit(mul((0.5, 3.0, 0.0), None)) == INFINITE
        assert limit((0.0, 0.0, 0.0)) == FINITE

    def test_eps_infimum(self):
        # d^-0.6 against d^1: ε >= 0.6; a log against d^1: every ε > 0
        assert eps_infimum((-0.6, 0.0, 0.0), (1.0, 0.0, 0.0), 1.0) == 0.6
        assert eps_infimum((0.0, 2.0, 0.0), (1.0, 0.0, 0.0), 1.0) == 0.0
        assert eps_infimum((-0.6, 0.0, 0.0), (1.0, 0.0, 0.0), 0.5) is None
        # a power against a log decay: no ε; logs against logs: the ratio
        assert eps_infimum((-0.1, 0.0, 0.0), (0.0, -1.0, 0.0), 9.0) is None
        assert eps_infimum((0.0, 0.5, 0.0), (0.0, -2.0, 0.0), 9.0) == 0.25
        assert eps_infimum((0.0, 0.0, 0.0), None, 9.0) is None


class TestInvariants:
    def test_positive_and_finite_inside(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b, l = rng.uniform(-2, 2, 3)
            lo = rng.uniform(1.5, 2.5)
            wm = model(PowerLogPiece(lo, lo + rng.uniform(0.5, 3.0),
                                     10.0 ** rng.uniform(-2, 2), a, b, l),
                       r1=1.0)
            rs = np.linspace(wm.lo_domain, wm.r2, 41)[1:-1]
            vals = wm(rs)
            assert np.all(vals > 0) and np.all(np.isfinite(vals))

    def test_tiling_lengths_and_no_overlap(self):
        wm = model(
            PowerLogPiece(1.0, 2.0, 1.0),
            PowerLogPiece(2.0, 3.5, 2.0),
            PowerLogPiece(3.5, 6.0, 3.0),
        )
        lengths = sum(p.hi - p.lo for p in wm.pieces)
        assert lengths == pytest.approx(6.0 - 1.0, rel=1e-15)
        # each interior point belongs to exactly one piece
        for r in np.linspace(1.01, 5.99, 57):
            owners = [p for p in wm.pieces if p.lo <= r < p.hi]
            assert len(owners) == 1

    def test_gap_rejected(self):
        with pytest.raises(SpecError):
            model(PowerLogPiece(1.0, 2.0, 1.0), PowerLogPiece(2.5, 3.0, 1.0))

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(-3, 3), b=st.floats(-3, 3), l=st.floats(-2, 2),
        c=st.floats(0.01, 100.0), p=st.floats(1.2, 6.0), n=st.integers(1, 5),
    )
    def test_conj_power_exponent_algebra(self, a, b, l, c, p, n):
        """rho_conj's piece exponents are rho's e = (a, b + N - 1, l), each
        mapped to -e / (p-1) with one rounding; its scale is c**(1 - p')."""
        vm = model(PowerLogPiece(2.0, 5.0, c, a, b, l), r1=2.0)
        ps = ProblemSpec(N=n, p=p, R1=2.0, R2=5.0, v=vm,
                         w=WeightModel.constant(1.0, 2.0, 5.0))
        got = ps.rho_conj_model.pieces[0]
        assert got.a == -a / (p - 1.0)
        assert got.b == -(b + (n - 1)) / (p - 1.0)
        assert got.l == -l / (p - 1.0)
        assert got.c == pytest.approx(c ** (-1.0 / (p - 1.0)), rel=1e-12)


class TestProblemJson:
    def test_round_trip(self, ex61):
        d = problem_to_dict(ex61)
        ps2 = problem_from_dict(d)
        assert problem_to_dict(ps2) == d
        assert ps2.R2 == INF

    def test_infinity_encoding(self, ex61):
        d = problem_to_dict(ex61)
        assert d["R2"] == "inf"
        assert d["v"][-1]["hi"] == "inf"

    def test_missing_field_names_path(self):
        with pytest.raises(SpecError) as exc:
            problem_from_dict({"N": 2, "p": 2.0, "R1": 1.0, "R2": 2.0,
                               "v": [{"lo": 1.0}], "w": []})
        assert "v[0].hi" in str(exc.value)

    def test_log_requires_lo_above_one(self):
        with pytest.raises(SpecError):
            PowerLogPiece(0.5, 2.0, 1.0, 0.0, 0.0, 1.0)

    def test_invariant_violations(self):
        with pytest.raises(SpecError):
            PowerLogPiece(1.0, 2.0, -1.0)
        with pytest.raises(SpecError):
            PowerLogPiece(2.0, 2.0, 1.0)
        one = WeightModel.constant(1.0, 1.0, 2.0)
        with pytest.raises(SpecError):
            ProblemSpec(N=0, p=2.0, R1=1.0, R2=2.0, v=one, w=one)
        with pytest.raises(SpecError):
            ProblemSpec(N=1, p=1.0, R1=1.0, R2=2.0, v=one, w=one)


class TestAnnulusOnly:
    """The domain is an annulus, 0 < R1: the ball case R1 = 0 is refused."""

    def test_weight_model_origin_zero_rejected(self):
        with pytest.raises(SpecError):
            model(PowerLogPiece(0.0, 1.0, 1.0, 0.5), r1=0.0)
        with pytest.raises(SpecError):
            WeightModel.constant(1.0, 0.0, 1.0)

    def test_problem_spec_r1_zero_rejected(self):
        # weights whose origin 1e-12 matches R1 = 0 to the junction tolerance
        near = WeightModel.constant(1.0, 1e-12, 1.0)
        with pytest.raises(SpecError) as exc:
            ProblemSpec(N=1, p=2.0, R1=0.0, R2=1.0, v=near, w=near)
        assert exc.value.field_path == "R1"

    def test_json_r1_zero_rejected(self):
        piece = {"lo": 0.0, "hi": 1.0}
        with pytest.raises(SpecError):
            problem_from_dict({"N": 1, "p": 2.0, "R1": 0.0, "R2": 1.0,
                               "v": [piece], "w": [piece]})


class TestScaling:
    def test_scaled_weight(self):
        one = WeightModel.constant(1.0, 1.0, 2.0)
        ps = ProblemSpec(N=1, p=2.0, R1=1.0, R2=2.0, v=one, w=one)
        ps10 = ps.with_scaled_w(10.0)
        assert ps10.sigma_model(1.5) == pytest.approx(10.0 * ps.sigma_model(1.5))

    def test_truncation(self, ex61):
        ps_t = ex61.truncated(8.0)
        assert ps_t.R2 == 8.0
        assert ps_t.rho_model(4.0) == pytest.approx(ex61.rho_model(4.0))


class TestJunctions:
    """``ProblemSpec.junctions``: the one list of radii inside (R1, R2) where
    v or w changes piece, read by the mesh, the shoots and the witnesses."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_sorted_union_strictly_inside(self, name):
        ps = get_preset(name).problem
        got = ps.junctions
        assert list(got) == sorted(set(got))
        assert all(ps.R1 < t < ps.R2 for t in got)
        union = set(ps.v.breakpoints()) | set(ps.w.breakpoints())
        assert set(got) == {t for t in union if ps.R1 < t < ps.R2}

    def test_truncation_drops_the_junctions_past_the_cut(self):
        ps = get_preset("rmk23").problem
        assert ps.junctions == (2.0, 3.0)
        assert ps.truncated(2.5).junctions == (2.0,)
        assert ps.truncated(8.0).junctions == (2.0, 3.0)

    def test_v_and_w_junctions_merge(self):
        v = WeightModel((PowerLogPiece(1.0, 1.5, 1.0), PowerLogPiece(1.5, 4.0, 2.0)), 1.0)
        w = WeightModel((PowerLogPiece(1.0, 3.0, 1.0), PowerLogPiece(3.0, 4.0, 0.5)), 1.0)
        ps = ProblemSpec(N=2, p=2.0, R1=1.0, R2=4.0, v=v, w=w)
        assert ps.junctions == (1.5, 3.0)
        assert ProblemSpec(N=2, p=2.0, R1=1.0, R2=4.0, v=v, w=v).junctions == (1.5,)
