"""Piecewise power-log radial weights and the radial eigenproblem data.

A weight on the annulus (R1, R2), 0 < R1 < R2 <= inf, is represented
piecewise as ``c * (r-R1)**a * r**b * (log r)**l`` and evaluated at the
offset ``t = r - R1`` (:meth:`WeightModel.at`; a call converts radii),
which keeps every digit of the distance to R1.  The family is closed under
multiplication by one such factor (:meth:`WeightModel.times`) and under the
conjugate power (:meth:`WeightModel.conj`), so every integrability question
that matters here -- at R1, at a finite R2, at infinity -- is decided by
exponent arithmetic alone.  Log factors are only allowed on
pieces with ``lo > 1``, which keeps ``log r`` positive and bounded away from
zero on the piece; log-type behavior can then only occur at infinity.

The derived 1-d coefficients are ``rho = r**(N-1) * v`` and
``sigma = r**(N-1) * w``; the conjugate power ``rho**(1-p')`` with
``p' = p/(p-1)`` stays in the family (each exponent e becomes -e/(p-1)).

Endpoint behavior is decided in one magnitude algebra.  A magnitude is a
triple ``(power, log, loglog)`` standing for ``d**power * |log d|**log *
(log|log d|)**loglog`` as the distance ``d`` to an endpoint tends to 0:
``d = r - R1`` at ``LEFT_R1``, ``R2 - r`` at a finite ``RIGHT_R2`` and ``1/r``
at ``INFINITY``; ``None`` stands for +inf at every r.  :func:`magnitude`
reads a model's value there from :func:`local_exponents`; the operations are
the near-end integral over (0, d), the far-side integral over (d, c),
product and power (:func:`mul`), the limit, and the ε infimum.  An integral
shifts the power by +1 at a finite end and by -1 at infinity (``dr =
-dd/d**2``); either shift is exact next to the critical power 0, so no
exponent is rounded onto a critical value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

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

    def value(self, t, r1):
        """``c t**a (r1+t)**b log(r1+t)**l`` at the offsets ``t = r - r1``,
        the log as ``log1p((r1-1) + t)``; vectorized, no domain checking."""
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.c)
        if self.a != 0.0:
            out = out * np.power(t, self.a)
        if self.b != 0.0:
            out = out * np.power(r1 + t, self.b)
        if self.l != 0.0:
            out = out * np.power(np.log1p((r1 - 1.0) + t), self.l)
        return out


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
        if not self.r1 > 0.0:
            raise SpecError(f"origin r1 must be positive (an annulus), got {self.r1}")
        pieces = tuple(self.pieces)
        lo0 = pieces[0].lo
        if lo0 < self.r1 - _JUNCTION_RTOL * max(1.0, self.r1):
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
        return self.lo_domain <= self.r1 + _JUNCTION_RTOL * max(1.0, self.r1)

    @cached_property
    def _t_los(self):
        return np.array([p.lo - self.r1 for p in self.pieces])

    def breakpoints(self):
        return [p.lo for p in self.pieces] + [self.pieces[-1].hi]

    def piece_index(self, t):
        """Index of the piece owning each offset ``t`` (right-limit at junctions)."""
        return np.maximum(np.searchsorted(self._t_los, t, side="right") - 1, 0)

    # -- evaluation -------------------------------------------------------

    def at(self, t):
        """Value at the offsets ``t = r - r1``; DomainError outside the domain."""
        scalar = np.isscalar(t)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        bad = t[(t <= self._t_los[0]) | (t >= self.r2 - self.r1)]
        if bad.size:
            raise DomainError(f"r = {self.r1} + {bad[0]} outside ({self.lo_domain}, {self.r2})")
        idx = self.piece_index(t)
        out = np.empty_like(t)
        for i in np.unique(idx):
            m = idx == i
            out[m] = self.pieces[i].value(t[m], self.r1)
        return float(out[0]) if scalar else out

    def __call__(self, r):
        """Value at the radii ``r``: :meth:`at` their offsets from ``r1``."""
        return self.at(np.subtract(r, self.r1))

    # -- algebra (closed in the power-log family) --------------------------

    def times(self, c=1.0, a=0.0, b=0.0, l=0.0):
        """Multiply every piece by ``c * (r-R1)**a * r**b * (log r)**l``."""
        return WeightModel(tuple(
            replace(pc, c=pc.c * c, a=pc.a + a, b=pc.b + b, l=pc.l + l)
            for pc in self.pieces), self.r1)

    def conj(self, p):
        """The model raised to ``1 - p' = -1/(p-1)``.

        Each exponent e becomes -e / (p-1), rounded once, so e = p-1 lands on
        exactly -1, where e * (-1/(p-1)) can round off a critical value.
        """
        pm1 = p - 1.0
        return WeightModel(tuple(
            replace(pc, c=pc.c ** (-1.0 / pm1), a=-pc.a / pm1, b=-pc.b / pm1, l=-pc.l / pm1)
            for pc in self.pieces), self.r1)

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


# -- local exponents ---------------------------------------------------------

LEFT_R1 = "left_R1"
RIGHT_R2 = "right_R2"
INFINITY = "infinity"


def local_exponents(wm: WeightModel, endpoint: str):
    """Governing (power, log-power) of the piece adjacent to an endpoint.

    Left endpoint: behavior in (r - R1); a domain starting right of the
    origin is regular there, reported as (0, 0).  At infinity the (r-R1)**a
    factor behaves like r**a, so the governing power is a + b.
    """
    if endpoint == LEFT_R1:
        return (wm.pieces[0].a, 0.0) if wm.left_singular else (0.0, 0.0)
    if endpoint == INFINITY:
        if math.isfinite(wm.r2):
            raise ValueError("model ends at a finite radius")
        p = wm.pieces[-1]
        return (p.a + p.b, p.l)
    raise ValueError(f"unknown endpoint {endpoint!r}")


# -- endpoint magnitudes -----------------------------------------------------

ZERO, FINITE, INFINITE = "zero", "finite", "infinite"


def right_end(r2):
    """The endpoint tag of a domain ending at ``r2``."""
    return RIGHT_R2 if math.isfinite(r2) else INFINITY


def magnitude(wm: WeightModel, end):
    """Magnitude of the model's value at ``end`` (regular at a finite R2)."""
    if end == RIGHT_R2:
        return (0.0, 0.0, 0.0)
    power, log = local_exponents(wm, end)
    return (-power, log, 0.0) if end == INFINITY else (power, log, 0.0)


def near_integral(m, end):
    """Magnitude of ∫ of ``m`` over the distances (0, d): None if divergent."""
    k, log, loglog = m[0] + (-1.0 if end == INFINITY else 1.0), m[1], m[2]
    if k > 0.0:
        return (k, log, loglog)
    if k < 0.0 or log > -1.0 or (log == -1.0 and loglog >= -1.0):
        return None
    return (0.0, log + 1.0, loglog) if log < -1.0 else (0.0, 0.0, loglog + 1.0)


def far_integral(m, end):
    """Magnitude of ∫ of ``m`` over the distances (d, c) for a fixed c."""
    k, log, loglog = m[0] + (-1.0 if end == INFINITY else 1.0), m[1], m[2]
    if k < 0.0:
        return (k, log, loglog)
    if k > 0.0 or log < -1.0 or (log == -1.0 and loglog < -1.0):
        return (0.0, 0.0, 0.0)
    if log > -1.0:
        return (0.0, log + 1.0, loglog)
    if loglog == -1.0:
        raise ValueError("log-log-log growth is outside the magnitude algebra")
    return (0.0, 0.0, loglog + 1.0)


def integrable(wm: WeightModel, end):
    """Whether the integral of the model converges next to ``end``."""
    return near_integral(magnitude(wm, end), end) is not None


def mul(m1, m2, q=1.0):
    """Magnitude of m1 * m2**q."""
    if m1 is None or m2 is None:
        return None
    return tuple(x + q * y for x, y in zip(m1, m2))


def limit(m):
    """ZERO, FINITE or INFINITE: the limit of ``m`` as d -> 0."""
    if m is None:
        return INFINITE
    power, log, loglog = m
    lead = power if power != 0.0 else -log if log != 0.0 else -loglog
    return ZERO if lead > 0.0 else INFINITE if lead < 0.0 else FINITE


def eps_infimum(grow, decay, cap):
    """Infimum of the ε >= 0 that keep ``grow * decay**ε`` bounded.

    None when ``decay`` does not tend to 0 or the infimum is not below
    ``cap``; 0.0 when every ε > 0 works.
    """
    if limit(decay) != ZERO:
        return None
    if limit(grow) != INFINITE:
        return 0.0
    j = next(i for i, x in enumerate(decay) if x != 0.0)
    i = next(i for i, x in enumerate(grow) if x != 0.0)
    if i != j:
        return 0.0 if i > j else None
    crit = -grow[j] / decay[j]
    return crit if crit < cap else None


# -- the radial problem -------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """Radial Dirichlet eigenproblem data (N, p, R1, R2, v, w), 0 < R1 < R2.

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

    def __post_init__(self):
        if not (isinstance(self.N, int) and self.N >= 1):
            raise SpecError(f"N must be an integer >= 1, got {self.N}", "N")
        if not self.p > 1.0:
            raise SpecError(f"p must exceed 1, got {self.p}", "p")
        if not (0.0 < self.R1 < self.R2):
            raise SpecError(f"need 0 < R1 < R2, got R1={self.R1}, R2={self.R2}", "R1")
        for name, wm in (("v", self.v), ("w", self.w)):
            if abs(wm.r1 - self.R1) > _JUNCTION_RTOL * max(1.0, self.R1):
                raise SpecError(f"{name} has origin {wm.r1}, not R1={self.R1}", name)
            if abs(wm.lo_domain - self.R1) > _JUNCTION_RTOL * max(1.0, self.R1):
                raise SpecError(f"{name} starts at {wm.lo_domain}, not R1={self.R1}", name)
            if not (wm.r2 == self.R2 or abs(wm.r2 - self.R2) <= _JUNCTION_RTOL * max(1.0, abs(wm.r2))):
                raise SpecError(f"{name} ends at {wm.r2}, not R2={self.R2}", name)

    @cached_property
    def junctions(self):
        """Sorted radii strictly inside (R1, R2) where v or w changes piece."""
        breaks = self.v.breakpoints() + self.w.breakpoints()
        return tuple(sorted({t for t in breaks if self.R1 < t < self.R2}))

    @cached_property
    def rho_model(self):
        return self.v.times(b=self.N - 1)

    @cached_property
    def sigma_model(self):
        return self.w.times(b=self.N - 1)

    @cached_property
    def rho_conj_model(self):
        """Model of rho**(1-p') = rho**(-1/(p-1))."""
        return self.rho_model.conj(self.p)

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

    def with_scaled_w(self, factor):
        return replace(self, w=self.w.times(c=factor))

    def with_scaled_v(self, factor):
        return replace(self, v=self.v.times(c=factor))

    def truncated(self, r_max):
        """Finite-annulus restriction (R1, r_max) of an exterior problem."""
        if r_max >= self.R2:
            raise SpecError(f"truncation {r_max} must lie inside (R1, R2)")
        return ProblemSpec(
            N=self.N, p=self.p, R1=self.R1, R2=r_max,
            v=self.v.restricted(self.R1, r_max),
            w=self.w.restricted(self.R1, r_max),
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
    return ProblemSpec(N=n, p=p, R1=r1, R2=r2, v=v, w=w)


def _jsonable(x):
    return "inf" if x == INF else x


def problem_to_dict(ps: ProblemSpec) -> dict:
    def pieces(wm):
        return [
            {"lo": p.lo, "hi": _jsonable(p.hi), "c": p.c, "a": p.a, "b": p.b, "l": p.l}
            for p in wm.pieces
        ]

    return {
        "N": ps.N,
        "p": ps.p,
        "R1": ps.R1,
        "R2": _jsonable(ps.R2),
        "v": pieces(ps.v),
        "w": pieces(ps.w),
    }


def load_problem(path) -> ProblemSpec:
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return problem_from_dict(d)
