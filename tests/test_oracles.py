"""Closed-form λ₁ oracles that do not depend on the code under test.

N = 1 on (1, 2) with v = (r-1)^α and w = (r-1)^β, so ρ = v and σ = w.

* Bessel, p = 2: with q = (2 - α + β)/2 and ν = (1 - α)/(2q) the
  eigenfunction is t^{(1-α)/2} J_ν(√λ t^q / q) in t = r - 1, and
  λ₁ = (q j_{ν,1})², j_{ν,1} the first positive zero of J_ν.
* p-sine, v = w = 1: λ₁ = (p - 1) π_p^p with π_p = 2π/(p sin(π/p))
  (Lindqvist 1995; Drábek and Manásevich 1999).

Each solve runs at the default tol = 1e-10, so both the root of the
shooting margin and the reported λ must lie within tol·λ of the oracle.
"""

import functools

import mpmath
import pytest

from radial_plap import solver as S
from radial_plap.weights import PowerLogPiece, ProblemSpec, WeightModel

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
