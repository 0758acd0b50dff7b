import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radial_plap.weights import (
    INF,
    DomainError,
    PowerLogPiece,
    ProblemSpec,
    SpecError,
    WeightModel,
    local_exponents,
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

    def test_domain_error(self):
        wm = model(PowerLogPiece(1.0, 2.0, 1.0))
        with pytest.raises(DomainError):
            wm(1.0)
        with pytest.raises(DomainError):
            wm(2.5)


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

    def test_finite_right_regular(self):
        wm = model(PowerLogPiece(1.0, 2.0, 1.0, -0.5))
        assert local_exponents(wm, "right_R2_finite") == (0.0, 0.0)

    def test_ball_origin_merges_powers(self):
        wm = model(PowerLogPiece(0.0, 1.0, 1.0, 0.5, 1.5), r1=0.0)
        assert local_exponents(wm, "left_R1") == (2.0, 0.0)


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
        """rho_conj's piece exponents are rho's scaled by 1 - p' = -1/(p-1)."""
        vm = model(PowerLogPiece(2.0, 5.0, c, a, b, l), r1=1.0)
        rho_piece = PowerLogPiece(2.0, 5.0, c, a, b + n - 1, l)
        scale = -1.0 / (p - 1.0)
        got = (vm.shifted_r_power(n - 1) ** scale).pieces[0]
        assert got.a == pytest.approx(rho_piece.a * scale, rel=1e-12, abs=1e-12)
        assert got.b == pytest.approx(rho_piece.b * scale, rel=1e-12, abs=1e-12)
        assert got.l == pytest.approx(rho_piece.l * scale, rel=1e-12, abs=1e-12)
        assert got.c == pytest.approx(rho_piece.c**scale, rel=1e-12)


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
