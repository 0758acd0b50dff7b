"""Closed-form λ₁ oracles that do not depend on the code under test.

N = 1 on (1, 2) with v = (r-1)^α and w = (r-1)^β, so ρ = v and σ = w.

* Bessel, p = 2: with q = (2 - α + β)/2 and ν = (1 - α)/(2q) the
  eigenfunction is t^{(1-α)/2} J_ν(√λ t^q / q) in t = r - 1, and
  λ₁ = (q j_{ν,1})², j_{ν,1} the first positive zero of J_ν.
* p-sine, v = w = 1: λ₁ = (p - 1) π_p^p with π_p = 2π/(p sin(π/p))
  (Lindqvist 1995; Drábek and Manásevich 1999).

Kelvin, on the exterior: N = 3, p = 2, v = 1 and w = r^-4 on (1, ∞).  The
substitution s = 1/r turns the radial equation into U'' + λU = 0 on
(1/R, 1), so the Dirichlet rung at R has λ = π²/(1 - 1/R)² and the
exterior λ₁ = π².

Each solve runs at the default tol = 1e-10, so both the root of the
shooting margin and the reported λ must lie within tol·λ of the oracle.
"""

import functools
import math

import mpmath
import pytest

from radial_plap import solver as S
from radial_plap.weights import INF, PowerLogPiece, ProblemSpec, WeightModel

TOL = 1e-10

_NUDGED = pytest.mark.xfail(strict=True, reason=(
    "the trace at brentq's root is not positive, so the reported λ steps "
    "down by 8 tol (about -8e-10 relative); ROADMAP Direction 2 takes it "
    "from the positive bracket end instead"))


def _bessel(alpha, beta):
    q = mpmath.mpf(2 - alpha + beta) / 2
    nu = (1 - alpha) / (2 * q)
    return 2.0, alpha, beta, float((q * mpmath.besseljzero(nu, 1)) ** 2)


def _p_sine(p):
    pi_p = 2 * mpmath.pi / (p * mpmath.sin(mpmath.pi / p))
    return p, 0.0, 0.0, float((p - 1) * pi_p**p)


CASES = {
    "bessel 0, 0": _bessel(0.0, 0.0),
    "bessel 0.5, -0.25": _bessel(0.5, -0.25),
    "bessel 0.5, 0": _bessel(0.5, 0.0),
    "bessel -0.5, -0.25": _bessel(-0.5, -0.25),
    "bessel 0, -0.9": _bessel(0.0, -0.9),
    "p-sine 1.5": _p_sine(1.5),
    "p-sine 3": _p_sine(3.0),
    "p-sine 4": _p_sine(4.0),
}


@functools.lru_cache(maxsize=None)
def _solve(name):
    p, alpha, beta, _ = CASES[name]
    v = WeightModel((PowerLogPiece(1.0, 2.0, 1.0, alpha),), 1.0)
    w = WeightModel((PowerLogPiece(1.0, 2.0, 1.0, beta),), 1.0)
    ps = ProblemSpec(N=1, p=p, R1=1.0, R2=2.0, v=v, w=w)
    return S.find_lambda1(ps, tol=TOL, check=False)


@pytest.mark.parametrize("name", CASES)
def test_root_matches_oracle(name):
    lam = _solve(name).diagnostics["lambda_root"]
    assert abs(lam - CASES[name][3]) <= TOL * CASES[name][3]


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=_NUDGED) if name in ("bessel 0.5, 0", "p-sine 4")
    else name for name in CASES])
def test_reported_lambda_matches_oracle(name):
    lam = _solve(name).lam
    assert abs(lam - CASES[name][3]) <= TOL * CASES[name][3]


KELVIN = ProblemSpec(
    N=3, p=2.0, R1=1.0, R2=INF, v=WeightModel.constant(1.0, 1.0, INF),
    w=WeightModel((PowerLogPiece(1.0, INF, 1.0, 0.0, -4.0),), 1.0))


@pytest.mark.parametrize("R", [2.0, 4.0, 8.0, 16.0, 32.0])
def test_kelvin_rung_matches_oracle(R):
    exact = math.pi**2 / (1.0 - 1.0 / R) ** 2
    eig = S.find_lambda1(KELVIN.truncated(R), tol=TOL, check=False)
    assert abs(eig.diagnostics["lambda_root"] - exact) <= TOL * exact
    assert abs(eig.lam - exact) <= TOL * exact


def test_kelvin_dirichlet_ladder_decreases_to_pi_squared():
    eig = S.find_lambda1(KELVIN, ladder=[2.0, 4.0, 8.0, 16.0, 32.0],
                         bc="dirichlet", check=False)
    lams = [lam for _, lam in eig.diagnostics["ladder"]]
    assert len(lams) == 5
    assert all(b < a for a, b in zip(lams, lams[1:]))
    assert lams[-1] >= math.pi**2
