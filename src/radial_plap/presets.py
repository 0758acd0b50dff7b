"""Named example problems with documented parameter choices.

The underlying families give ranges, not single instances; the presets pin
concrete defaults inside the admissible ranges:

* ``annulus-trivial`` -- rho = sigma = 1 on (1, 2) via N = 1, p = 2; the
  textbook case with lam_1 = pi^2 and u = sin(pi (r-1)).
* ``annulus-n3``      -- N = 3, p = 2, v = w = 1 on (1, 2); closed form
  u = sin(pi (r-1)) / r, again lam_1 = pi^2.
* ``ex61``  (degenerate inner weight) -- v = (r-1)^alpha on (1, inf) with
  alpha = 0.5, p = 2, N = 3; w = (r-1)^(-0.25) near 1 matched continuously
  to a 16 r^-4 tail.  Boundary exponents: (p-1-alpha)/(p-1) = 0.5 on the
  left, -(N-p+alpha)/(p-1) = -1.5 at infinity.
* ``ex62``  (singular inner weight) -- alpha = -0.5 with p = 2, N = 3
  (inside p-N < alpha < 0); same w shape.  Left exponent 1.5, so u'(R1+) = 0.
* ``rmk22`` -- v = 1, w = (r-1)^beta on (1, 2] with beta = -1.5 in (-p, -1],
  then a 16 r^-4 tail: integrable against (r-1)^(p-1) but not against
  r^(p-1) near 1.
* ``rmk23`` -- the three-piece pair with alpha = 0.5, beta = 1, alpha1 = -1,
  beta1 = -3 (ranges 1 < p < N, alpha < p-1, beta >= 0, alpha-p < alpha1 <= -1,
  -N <= beta1 < -p); transition bands are represented by constant pieces at
  the geometric mean of the allowed band.  Satisfies the exterior pair (W1)
  while both one-sided sigma integrals diverge, so the product condition
  fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .weights import INF, PowerLogPiece, ProblemSpec, WeightModel


@dataclass(frozen=True)
class Preset:
    name: str
    problem: ProblemSpec
    description: str
    expected: dict


def _two_piece_w(delta, tail, r2=INF, junction=2.0):
    """w = (r-1)^delta on (1, junction], continuity-matched c r^tail after."""
    c_tail = (junction - 1.0) ** delta / junction**tail
    return WeightModel(
        (
            PowerLogPiece(1.0, junction, 1.0, delta, 0.0, 0.0),
            PowerLogPiece(junction, r2, c_tail, 0.0, tail, 0.0),
        ),
        1.0,
    )


def make_ex61(alpha=0.5, p=2.0, N=3, delta=-0.25, tail=-4.0) -> ProblemSpec:
    """Degenerate-weight family: 0 <= alpha < p-1, delta < p-1-alpha, p < N+alpha."""
    if not (0.0 <= alpha < p - 1.0 and delta < p - 1.0 - alpha and p < N + alpha):
        raise ValueError("parameters outside the degenerate-weight ranges")
    v = WeightModel((PowerLogPiece(1.0, INF, 1.0, alpha, 0.0, 0.0),), 1.0)
    return ProblemSpec(N=N, p=p, R1=1.0, R2=INF, v=v, w=_two_piece_w(delta, tail))


def make_ex62(alpha=-0.5, p=2.0, N=3, delta=-0.25, tail=-4.0) -> ProblemSpec:
    """Singular-weight family: p - N < alpha < 0 with 1 < p < N."""
    if not (p - N < alpha < 0.0 and 1.0 < p < N):
        raise ValueError("parameters outside the singular-weight ranges")
    v = WeightModel((PowerLogPiece(1.0, INF, 1.0, alpha, 0.0, 0.0),), 1.0)
    return ProblemSpec(N=N, p=p, R1=1.0, R2=INF, v=v, w=_two_piece_w(delta, tail))


def make_rmk22(beta=-1.5, p=2.0, N=3, tail=-4.0) -> ProblemSpec:
    """Constant v with w = (r-1)^beta near 1, -p < beta <= -1."""
    if not (-p < beta <= -1.0):
        raise ValueError("beta must lie in (-p, -1]")
    v = WeightModel.constant(1.0, 1.0, INF)
    return ProblemSpec(N=N, p=p, R1=1.0, R2=INF, v=v, w=_two_piece_w(beta, tail))


def make_rmk23(p=2.0, N=3, alpha=0.5, beta=1.0, alpha1=-1.0, beta1=-3.0) -> ProblemSpec:
    """Three-piece pair satisfying (W1) but not the (OK) products."""
    if not (1.0 < p < N and alpha < p - 1.0 and beta >= 0.0
            and alpha - p < alpha1 <= -1.0 and -N <= beta1 < -p):
        raise ValueError("parameters outside the stated ranges")
    v = WeightModel(
        (
            PowerLogPiece(1.0, 2.0, 1.0, alpha, 0.0, 0.0),
            PowerLogPiece(2.0, 3.0, math.sqrt(3.0**beta), 0.0, 0.0, 0.0),
            PowerLogPiece(3.0, INF, 1.0, 0.0, beta, 0.0),
        ),
        1.0,
    )
    w = WeightModel(
        (
            PowerLogPiece(1.0, 2.0, 1.0, alpha1, 0.0, 0.0),
            PowerLogPiece(2.0, 3.0, math.sqrt(3.0**beta1), 0.0, 0.0, 0.0),
            PowerLogPiece(3.0, INF, 1.0, 0.0, beta1, 0.0),
        ),
        1.0,
    )
    return ProblemSpec(N=N, p=p, R1=1.0, R2=INF, v=v, w=w)


def make_annulus(N=1, p=2.0) -> ProblemSpec:
    one = WeightModel.constant(1.0, 1.0, 2.0)
    return ProblemSpec(N=N, p=p, R1=1.0, R2=2.0, v=one, w=one)


#: name -> (problem factory, description, expected results), in listing order
_PRESETS = {
    "annulus-trivial": (lambda: make_annulus(N=1),
                        "rho = sigma = 1 on (1, 2): lam_1 = pi^2, u = sin(pi (r-1))",
                        {"lambda1": math.pi**2}),
    "annulus-n3": (lambda: make_annulus(N=3),
                   "N = 3 annulus with unit weights: lam_1 = pi^2, u = sin(pi (r-1))/r",
                   {"lambda1": math.pi**2}),
    "ex61": (make_ex61, "degenerate inner weight alpha = 0.5, p = 2, N = 3, "
             "w = (r-1)^-0.25 near 1 with 16 r^-4 tail",
             {"left_exponent": 0.5, "right_exponent": -1.5}),
    "ex62": (make_ex62, "singular inner weight alpha = -0.5, p = 2, N = 3",
             {"left_exponent": 1.5, "right_exponent": -0.5}),
    "rmk22": (make_rmk22, "v = 1, w = (r-1)^-1.5 near 1: (W1) holds though the global "
              "r^(p-1) weighting fails near the inner boundary", {"W1": "holds"}),
    "rmk23": (make_rmk23, "three-piece weights: (W1) holds, the product condition fails",
              {"W1": "holds", "OK": "fails"}),
}
PRESET_NAMES = list(_PRESETS)


def get_preset(name: str) -> Preset:
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}")
    make, description, expected = _PRESETS[name]
    return Preset(name, make(), description, dict(expected))
