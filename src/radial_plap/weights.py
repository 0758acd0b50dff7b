"""Piecewise power-log radial weights and the radial eigenproblem data.

A weight on (R1, R2) is represented piecewise as ``c * (r-R1)**a * r**b *
(log r)**l``.  The family is closed under products and real powers, so every
integrability question that matters here -- at R1, at a finite R2, at
infinity -- is decided by exponent arithmetic alone.  Log factors are only
allowed on pieces with ``lo > 1``, which keeps ``log r`` positive and bounded
away from zero on the piece; log-type behavior can then only occur at
infinity.

The derived 1-d coefficients are ``rho = r**(N-1) * v`` and
``sigma = r**(N-1) * w``; the conjugate power ``rho**(1-p')`` with
``p' = p/(p-1)`` stays in the family (exponents scale by ``-1/(p-1)``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

import numpy as np

INF = math.inf

#: how close two junction radii must be (relatively) to be snapped together
_JUNCTION_RTOL = 1e-9


class DomainError(ValueError):
    """Evaluation requested outside the open interval (R1, R2)."""


class SpecError(ValueError):
    """A problem description violates the data model; ``field`` names the culprit."""

    def __init__(self, message, field_path=""):
        super().__init__(f"{field_path}: {message}" if field_path else message)
        self.field_path = field_path


@dataclass(frozen=True)
class PowerLogPiece:
    """One piece ``c * (r-R1)**a * r**b * (log r)**l`` on [lo, hi).

    ``l != 0`` requires ``lo > 1`` so the log factor is positive on the piece.
    """

    lo: float
    hi: float
    c: float = 1.0
    a: float = 0.0
    b: float = 0.0
    l: float = 0.0

    def __post_init__(self):
        if not self.c > 0.0:
            raise SpecError(f"piece scale c must be positive, got {self.c}")
        if not self.lo < self.hi:
            raise SpecError(f"piece needs lo < hi, got [{self.lo}, {self.hi})")
        if self.l != 0.0 and not self.lo > 1.0:
            raise SpecError(
                f"log exponent l={self.l} requires lo > 1, got lo={self.lo}"
            )

    def value(self, r, r1):
        """Pointwise value; vectorized over ``r``. No domain checking here."""
        r = np.asarray(r, dtype=float)
        out = np.full(r.shape, self.c)
        if self.a != 0.0:
            out = out * np.power(r - r1, self.a)
        if self.b != 0.0:
            out = out * np.power(r, self.b)
        if self.l != 0.0:
            out = out * np.power(np.log(r), self.l)
        return out

    def powered(self, q):
        return replace(
            self, c=self.c**q, a=self.a * q, b=self.b * q, l=self.l * q
        )


def _merge_breaks(x, y):
    """Union of two sorted breakpoint arrays, snapping nearly equal radii."""
    merged = []
    for t in sorted(list(x) + list(y)):
        if merged and t == merged[-1]:
            continue
        if (
            merged
            and math.isfinite(t)
            and math.isfinite(merged[-1])
            and abs(t - merged[-1]) <= _JUNCTION_RTOL * max(1.0, abs(t))
        ):
            continue
        merged.append(t)
    return merged


@dataclass(frozen=True)
class WeightModel:
    """An ordered tiling of (lo_domain, R2) by :class:`PowerLogPiece`.

    ``r1`` is the offset origin of the (r - R1)**a factors and usually equals
    the domain start; restrictions to sub-intervals keep the origin, so a
    model may begin strictly right of ``r1`` (where it is regular).  Junction
    radii evaluate on the right-limit piece (weights are defined a.e., so any
    convention is measure-equivalent).  Immutable; all methods return new
    models.
    """

    pieces: tuple
    r1: float

    def __post_init__(self):
        if not self.pieces:
            raise SpecError("weight model needs at least one piece")
        pieces = tuple(self.pieces)
        lo0 = pieces[0].lo
        if lo0 < self.r1 - _JUNCTION_RTOL * max(1.0, abs(self.r1)):
            raise SpecError(
                f"first piece starts at {lo0}, left of the origin r1={self.r1}"
            )
        for i in range(len(pieces) - 1):
            hi, lo = pieces[i].hi, pieces[i + 1].lo
            if not math.isfinite(hi) or abs(hi - lo) > _JUNCTION_RTOL * max(1.0, abs(hi)):
                raise SpecError(
                    f"pieces {i} and {i+1} do not tile: hi={hi} vs lo={lo}",
                    field_path=f"pieces[{i+1}].lo",
                )
        object.__setattr__(self, "pieces", pieces)

    # -- geometry ---------------------------------------------------------

    @property
    def r2(self):
        return self.pieces[-1].hi

    @property
    def lo_domain(self):
        return self.pieces[0].lo

    @property
    def left_singular(self):
        """Whether the domain starts at the (r-R1) origin itself."""
        return self.lo_domain <= self.r1 + _JUNCTION_RTOL * max(1.0, abs(self.r1))

    @cached_property
    def _los(self):
        return np.array([p.lo for p in self.pieces])

    def breakpoints(self):
        return [p.lo for p in self.pieces] + [self.pieces[-1].hi]

    def piece_index(self, r):
        """Index of the piece owning ``r`` (right-limit at junctions)."""
        idx = int(np.searchsorted(self._los, r, side="right")) - 1
        return max(idx, 0)

    # -- evaluation -------------------------------------------------------

    def __call__(self, r):
        scalar = np.isscalar(r)
        r = np.atleast_1d(np.asarray(r, dtype=float))
        lo = self.lo_domain
        if np.any(r <= lo) or np.any(r >= self.r2):
            bad = r[(r <= lo) | (r >= self.r2)][0]
            raise DomainError(
                f"r={bad} outside the open interval ({lo}, {self.r2})"
            )
        idx = np.searchsorted(self._los, r, side="right") - 1
        out = np.empty_like(r)
        for i in np.unique(idx):
            m = idx == i
            out[m] = self.pieces[i].value(r[m], self.r1)
        return float(out[0]) if scalar else out

    # -- algebra (closed in the power-log family) --------------------------

    def scaled(self, factor):
        if not factor > 0:
            raise SpecError("scale factor must be positive")
        return WeightModel(
            tuple(replace(p, c=p.c * factor) for p in self.pieces), self.r1
        )

    def shifted_r_power(self, db):
        """Multiply by ``r**db`` (used for the r^(N-1) factor)."""
        return WeightModel(
            tuple(replace(p, b=p.b + db) for p in self.pieces), self.r1
        )

    def __pow__(self, q):
        return WeightModel(tuple(p.powered(q) for p in self.pieces), self.r1)

    def __mul__(self, other):
        if not isinstance(other, WeightModel):
            return NotImplemented
        if abs(other.r1 - self.r1) > _JUNCTION_RTOL * max(1.0, abs(self.r1)):
            raise SpecError("cannot multiply models with different origins")
        if abs(other.lo_domain - self.lo_domain) > _JUNCTION_RTOL * max(
            1.0, abs(self.lo_domain)
        ) or not (other.r2 == self.r2 or abs(other.r2 - self.r2) <= _JUNCTION_RTOL * abs(self.r2)):
            raise SpecError("cannot multiply models tiling different intervals")
        breaks = _merge_breaks(self.breakpoints(), other.breakpoints())
        pieces = []
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            pa = self.pieces[self.piece_index(lo)]
            pb = other.pieces[other.piece_index(lo)]
            pieces.append(
                PowerLogPiece(
                    lo=lo, hi=hi, c=pa.c * pb.c, a=pa.a + pb.a,
                    b=pa.b + pb.b, l=pa.l + pb.l,
                )
            )
        return WeightModel(tuple(pieces), self.r1)

    def restricted(self, a, b):
        """Sub-model tiling (a, b); keeps the offset origin r1."""
        pieces = []
        for p in self.pieces:
            lo, hi = max(p.lo, a), min(p.hi, b)
            if lo < hi:
                pieces.append(replace(p, lo=lo, hi=hi))
        if not pieces:
            raise SpecError(f"restriction ({a}, {b}) is empty")
        return WeightModel(tuple(pieces), self.r1)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value, r1, r2):
        return WeightModel((PowerLogPiece(lo=r1, hi=r2, c=value),), r1)

    @staticmethod
    def from_pieces(pieces: Iterable[PowerLogPiece], r1):
        return WeightModel(tuple(pieces), r1)


# -- local exponents ---------------------------------------------------------

LEFT_R1 = "left_R1"
RIGHT_R2_FINITE = "right_R2_finite"
INFINITY = "infinity"


def local_exponents(wm: WeightModel, endpoint: str):
    """Governing (power, log-power) of the piece adjacent to an endpoint.

    Left endpoint: behavior in (r - R1); with R1 == 0 the r**b factor merges
    into the same power, and a domain starting right of the origin is regular
    there, reported as (0, 0).  Finite right endpoints are always regular in
    this family (no (R2-r) factors), so they report (0, 0).  At infinity the
    (r-R1)**a factor behaves like r**a, so the governing power is a + b.
    """
    if endpoint == LEFT_R1:
        if not wm.left_singular:
            return (0.0, 0.0)
        p = wm.pieces[0]
        if wm.r1 == 0.0:
            return (p.a + p.b, p.l)
        return (p.a, 0.0)
    if endpoint == RIGHT_R2_FINITE:
        if not math.isfinite(wm.r2):
            raise ValueError("model extends to infinity; no finite right endpoint")
        return (0.0, 0.0)
    if endpoint == INFINITY:
        if math.isfinite(wm.r2):
            raise ValueError("model ends at a finite radius")
        p = wm.pieces[-1]
        return (p.a + p.b, p.l)
    raise ValueError(f"unknown endpoint {endpoint!r}")


# -- the radial problem -------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """Radial Dirichlet eigenproblem data (N, p, R1, R2, v, w).

    Induces ``rho = r**(N-1) v`` and ``sigma = r**(N-1) w``.  Immutable after
    construction; derived models and cumulative integrals are cached, so
    instances are safe to share across threads.
    """

    N: int
    p: float
    R1: float
    R2: float
    v: WeightModel
    w: WeightModel
    lam: float | None = None

    def __post_init__(self):
        if not (isinstance(self.N, int) and self.N >= 1):
            raise SpecError(f"N must be an integer >= 1, got {self.N}", "N")
        if not self.p > 1.0:
            raise SpecError(f"p must exceed 1, got {self.p}", "p")
        if not (0.0 <= self.R1 < self.R2):
            raise SpecError(f"need 0 <= R1 < R2, got R1={self.R1}, R2={self.R2}", "R1")
        for name, wm in (("v", self.v), ("w", self.w)):
            if abs(wm.r1 - self.R1) > _JUNCTION_RTOL * max(1.0, self.R1):
                raise SpecError(f"{name} has origin {wm.r1}, not R1={self.R1}", name)
            if abs(wm.lo_domain - self.R1) > _JUNCTION_RTOL * max(1.0, self.R1):
                raise SpecError(f"{name} starts at {wm.lo_domain}, not R1={self.R1}", name)
            if not (wm.r2 == self.R2 or abs(wm.r2 - self.R2) <= _JUNCTION_RTOL * max(1.0, abs(wm.r2))):
                raise SpecError(f"{name} ends at {wm.r2}, not R2={self.R2}", name)

    @property
    def p_conj(self):
        return self.p / (self.p - 1.0)

    @cached_property
    def rho_model(self):
        return self.v.shifted_r_power(self.N - 1)

    @cached_property
    def sigma_model(self):
        return self.w.shifted_r_power(self.N - 1)

    @cached_property
    def rho_conj_model(self):
        """Model of rho**(1-p') = rho**(-1/(p-1))."""
        return self.rho_model ** (-1.0 / (self.p - 1.0))

    @cached_property
    def phi_rho_conj(self):
        """Left cumulative of rho**(1-p'): the left envelope."""
        from . import quadrature

        return quadrature.LeftCumulative(self.rho_conj_model)

    @cached_property
    def psi_rho_conj(self):
        """Right cumulative of rho**(1-p'): the right envelope."""
        from . import quadrature

        return quadrature.RightCumulative(self.rho_conj_model)

    @cached_property
    def phi_sigma(self):
        from . import quadrature

        return quadrature.LeftCumulative(self.sigma_model)

    @cached_property
    def psi_sigma(self):
        from . import quadrature

        return quadrature.RightCumulative(self.sigma_model)

    def with_scaled_w(self, factor):
        return replace(self, w=self.w.scaled(factor))

    def with_scaled_v(self, factor):
        return replace(self, v=self.v.scaled(factor))

    def truncated(self, r_max):
        """Finite-annulus restriction (R1, r_max) of an exterior problem."""
        if r_max >= self.R2:
            raise SpecError(f"truncation {r_max} must lie inside (R1, R2)")
        return ProblemSpec(
            N=self.N, p=self.p, R1=self.R1, R2=r_max,
            v=self.v.restricted(self.R1, r_max),
            w=self.w.restricted(self.R1, r_max),
            lam=self.lam,
        )


# -- JSON interface -----------------------------------------------------------


def _num(d, key, path, required=True, default=None):
    if key not in d:
        if required:
            raise SpecError("missing field", f"{path}.{key}")
        return default
    val = d[key]
    if val == "inf":
        return INF
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise SpecError(f"expected a number, got {val!r}", f"{path}.{key}")
    return float(val)


def _pieces_from_json(items, r1, path):
    if not isinstance(items, list) or not items:
        raise SpecError("expected a non-empty list of pieces", path)
    pieces = []
    for i, item in enumerate(items):
        ppath = f"{path}[{i}]"
        if not isinstance(item, dict):
            raise SpecError("piece must be an object", ppath)
        try:
            pieces.append(
                PowerLogPiece(
                    lo=_num(item, "lo", ppath),
                    hi=_num(item, "hi", ppath),
                    c=_num(item, "c", ppath, required=False, default=1.0),
                    a=_num(item, "a", ppath, required=False, default=0.0),
                    b=_num(item, "b", ppath, required=False, default=0.0),
                    l=_num(item, "l", ppath, required=False, default=0.0),
                )
            )
        except SpecError as exc:
            if not exc.field_path:
                raise SpecError(str(exc), ppath) from exc
            raise
    try:
        return WeightModel(tuple(pieces), r1)
    except SpecError as exc:
        raise SpecError(str(exc), path) from exc


def problem_from_dict(d) -> ProblemSpec:
    if not isinstance(d, dict):
        raise SpecError("problem spec must be a JSON object")
    n = d.get("N")
    if not isinstance(n, int) or isinstance(n, bool):
        raise SpecError(f"expected an integer, got {n!r}", "N")
    p = _num(d, "p", "")
    r1 = _num(d, "R1", "")
    r2 = _num(d, "R2", "")
    v = _pieces_from_json(d.get("v"), r1, "v")
    w = _pieces_from_json(d.get("w"), r1, "w")
    lam = _num(d, "lambda", "", required=False)
    return ProblemSpec(N=n, p=p, R1=r1, R2=r2, v=v, w=w, lam=lam)


def _jsonable(x):
    return "inf" if x == INF else x


def problem_to_dict(ps: ProblemSpec) -> dict:
    def pieces(wm):
        return [
            {"lo": p.lo, "hi": _jsonable(p.hi), "c": p.c, "a": p.a, "b": p.b, "l": p.l}
            for p in wm.pieces
        ]

    d = {
        "N": ps.N,
        "p": ps.p,
        "R1": ps.R1,
        "R2": _jsonable(ps.R2),
        "v": pieces(ps.v),
        "w": pieces(ps.w),
    }
    if ps.lam is not None:
        d["lambda"] = ps.lam
    return d


def load_problem(path) -> ProblemSpec:
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return problem_from_dict(d)


def dump_problem(ps: ProblemSpec, path):
    with open(path, "w") as fh:
        json.dump(problem_to_dict(ps), fh, indent=2, sort_keys=True)
        fh.write("\n")
