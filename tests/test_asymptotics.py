import math

import mpmath
import numpy as np
import pytest

from radial_plap import asymptotics as A
from radial_plap import solver as S
from radial_plap.presets import make_ex61
from radial_plap.weights import INF, PowerLogPiece, ProblemSpec, WeightModel


class TestEnvelopes:
    def test_unit_weights_linear(self, trivial_annulus):
        for r in (1.2, 1.7):
            assert A.envelope_left(trivial_annulus, r) == pytest.approx(r - 1.0)
            assert A.envelope_right(trivial_annulus, r) == pytest.approx(2.0 - r)

    def test_degenerate_left_power(self, ex61):
        # envelope ~ const (r-1)^{(p-1-alpha)/(p-1)} = const (r-1)^{1/2}
        ratios = [
            A.envelope_left(ex61, 1.0 + d) / d**0.5 for d in (1e-6, 1e-8, 1e-10)
        ]
        assert ratios[0] == pytest.approx(ratios[2], rel=1e-3)

    def test_degenerate_right_power(self, ex61):
        # envelope ~ const r^{-(N-p+alpha)/(p-1)} = const r^{-3/2}
        ratios = [A.envelope_right(ex61, r) * r**1.5 for r in (1e3, 1e5)]
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-2)

    def test_monotone_and_vanishing(self, ex61):
        rs = 1.0 + np.geomspace(1e-9, 10.0, 40)
        left = A.envelope_left(ex61, rs)
        right = A.envelope_right(ex61, rs)
        assert np.all(np.diff(left) > 0)
        assert np.all(np.diff(right) < 0)
        assert left[0] < 1e-4 * left[-1]

    def test_divergent_envelope_errors(self):
        ps = ProblemSpec(
            N=3, p=2.0, R1=1.0, R2=INF,
            v=WeightModel((PowerLogPiece(1.0, INF, 1.0, 1.5),), 1.0),
            w=WeightModel.constant(1.0, 1.0, INF),
        )
        with pytest.raises(ValueError):
            A.envelope_left(ps, 1.5)


class TestFitExponent:
    def test_exact_power_left(self):
        r = 1.0 + np.geomspace(1e-4, 1e-2, 20)
        u = (r - 1.0) ** 0.75
        slope, resid = A.fit_exponent(r, u, boundary="left", anchor=1.0)
        assert slope == pytest.approx(0.75, abs=1e-10)
        assert resid < 1e-10

    def test_exact_power_right(self):
        r = np.geomspace(10.0, 1e3, 25)
        u = r**-1.5
        slope, resid = A.fit_exponent(r, u, boundary="right")
        assert slope == pytest.approx(-1.5, abs=1e-10)
        assert resid < 1e-10

    def test_rejects_nonpositive(self):
        r = np.linspace(2.0, 3.0, 10)
        with pytest.raises(ValueError):
            A.fit_exponent(r, np.linspace(-1, 1, 10), boundary="right")

    def test_needs_eight_samples(self):
        r = np.linspace(2.0, 3.0, 5)
        with pytest.raises(A.WindowError):
            A.fit_exponent(r, r, boundary="right")


class TestSandwich:
    def test_trivial_left_ratio_is_pi(self, trivial_annulus, trivial_eigenpair):
        v = A.sandwich_check(trivial_eigenpair, trivial_annulus, "left")
        assert v.passed
        # u/envelope = sin(pi d)/d -> pi (normalization adds ~1e-6 slack)
        assert 0.95 * math.pi <= v.ratio_min <= v.ratio_max <= math.pi * (1 + 1e-5)
        assert v.fitted_exponent == pytest.approx(1.0, abs=0.01)
        assert v.theoretical_exponent == 1.0

    def test_trivial_right(self, trivial_annulus, trivial_eigenpair):
        v = A.sandwich_check(trivial_eigenpair, trivial_annulus, "right")
        assert v.passed

    def test_finite_derivative_at_alpha_zero(self):
        # alpha = 0: 0 < |u'(R1+)| < inf, ratio bounded
        ps = make_ex61(alpha=0.0, delta=-0.25, tail=-4.0, N=4, p=2.0)
        ps_t = ps.truncated(32.0)
        eig = S.find_lambda1(ps_t, check=False, per_decade=16)
        v = A.sandwich_check(eig, ps_t, "left")
        assert v.passed
        assert v.theoretical_exponent == 1.0
        # flux bounded away from 0 means u' has a finite nonzero limit
        assert v.extras["flux_min"] > 0

    def test_window_with_zero_rejected(self, trivial_annulus, trivial_eigenpair):
        bad = trivial_eigenpair
        u = bad.u.copy()
        u[5] = -1e-9
        eig = S.Eigenpair(bad.lam, bad.mesh, u, bad.flux, 1, {})
        with pytest.raises(ValueError, match="zero"):
            A.sandwich_check(eig, trivial_annulus, "left",
                             window=(bad.mesh.nodes[2], bad.mesh.nodes[40]))

    def test_derivative_sandwich_equals_flux_bounds(self, ex61_asymptotic_run):
        """|u'| between multiples of rho^{1-p'} is algebraically the same as
        the flux staying between positive constants."""
        ps, ps_t, eig = ex61_asymptotic_run
        v = A.sandwich_check(eig, ps_t, "left")
        w = v.window
        mask = (eig.mesh.nodes >= w[0]) & (eig.mesh.nodes <= w[1])
        rs = eig.mesh.nodes[mask]
        du = np.gradient(eig.u[mask], rs)
        rhoc = ps_t.rho_conj_model(rs)
        ratio = np.abs(du) / rhoc
        flux_pow = np.abs(eig.flux[mask]) ** (1.0 / (ps.p - 1.0))
        assert np.max(np.abs(ratio - flux_pow) / flux_pow) < 5e-2
        assert v.extras["flux_min"] > 0
        assert v.extras["flux_max"] / v.extras["flux_min"] < 10.0

    def test_window_shrinkage_stability(self, ex61_asymptotic_run):
        """Halving the window toward the boundary moves the achieved ratio
        spread by at most 5 percent."""
        ps, ps_t, eig = ex61_asymptotic_run
        w = A.default_window(ps_t, eig, "left")
        v1 = A.sandwich_check(eig, ps_t, "left", window=w)
        half = (w[0] / 2.0 + ps.R1 / 2.0, (w[1] + ps.R1) / 2.0)
        v2 = A.sandwich_check(eig, ps_t, "left", window=half)
        s1 = v1.ratio_max / v1.ratio_min
        s2 = v2.ratio_max / v2.ratio_min
        assert s2 <= s1 * 1.05


class TestDefaultWindow:
    @staticmethod
    def _flat_eigenpair(r_end):
        """u = 1 on a mesh ending at r_end: only max u and the mesh matter."""
        nodes = np.geomspace(1.0 + 1e-6, r_end, 400)
        mesh = S.Mesh(nodes, 1.0, r_end, 1e-6, 1e-6)
        u = np.ones_like(nodes)
        return S.Eigenpair(1.0, mesh, u, u, 0, {})

    def _need(self, ps, r_end):
        with pytest.raises(A.WindowError, match="needs about") as exc:
            A.default_window(ps, self._flat_eigenpair(r_end), "right")
        return float(exc.value.args[0].split("needs about ")[1].split(")")[0])

    def test_stated_need_is_the_mesh_free_one(self, ex62):
        """ex62's envelope is atan(1/sqrt(r-1)) + sqrt(r-1)/r ~ 2 r^(-1/2);
        the right window runs from its 1e-2 to its 1e-3 level, and the
        message names 6 times the outer radius however short the mesh is."""
        def level(c):
            return float(mpmath.findroot(
                lambda r: mpmath.atan(1 / mpmath.sqrt(r - 1))
                + mpmath.sqrt(r - 1) / r - c, 4.0 / c**2))

        need = self._need(ex62, 4096.0)
        assert need == self._need(ex62, 24576.0)
        assert need == pytest.approx(6.0 * level(1e-3), abs=0.5)  # printed as an integer
        r_in, r_out = A.default_window(ex62, self._flat_eigenpair(1.01 * need),
                                       "right")
        assert r_in == pytest.approx(level(1e-2), rel=1e-9)
        assert r_out == pytest.approx(level(1e-3), rel=1e-9)


class TestTheoretical:
    def test_exponents(self, ex61, ex62, trivial_annulus):
        assert A.theoretical_exponent(ex61, "left") == pytest.approx(0.5)
        assert A.theoretical_exponent(ex61, "right") == pytest.approx(-1.5)
        assert A.theoretical_exponent(ex62, "left") == pytest.approx(1.5)
        assert A.theoretical_exponent(trivial_annulus, "right") == 1.0
