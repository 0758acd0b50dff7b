"""Spans around the package's layer boundaries, and the per-layer metrics.

The traced run wraps module attributes that the package resolves at call
time, so every call a layer makes through them is recorded without any
change to the package.  A span records its name, start, end, parent and a
few counts read from the call's arguments or result; spans stay in memory
until the run ends.  A span's self time is its duration minus the time its
direct children cover (calls are single-threaded, so children never
overlap).

When a hook point is missing from the package, its metrics are reported as
``None`` (absent), never as 0.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from radial_plap import asymptotics, cli, conditions, degiorgi, quadrature, solver


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []

    def open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, **attrs):
        index = self.open(name)
        self.spans[index].attrs.update(attrs)
        try:
            yield self.spans[index]
        finally:
            self.close(index)


# ---------------------------------------------------------------------------
# hook points: (owner, attribute, span name, annotate(attrs, args, kwargs, result))
# ---------------------------------------------------------------------------


def _shoot(attrs, args, kwargs, result):
    attrs["want_trace"] = bool(kwargs.get("want_trace", False))


def _solve_ivp(attrs, args, kwargs, sol):
    attrs["steps"] = len(sol.t) - 1
    attrs["nfev"] = int(sol.nfev)


def _find_lambda1(attrs, args, kwargs, eig):
    attrs["rungs"] = len(eig.diagnostics.get("ladder", ()))


def _rayleigh(attrs, args, kwargs, eig):
    attrs["iters"] = int(eig.diagnostics["iterations"])
    attrs["nodes"] = eig.mesh.n


def _integrate(attrs, args, kwargs, res):
    attrs["evals"] = int(res.evaluations)


def _interval(attrs, args, kwargs, out):
    attrs["cells"] = len(out)


def _cumulative(attrs, args, kwargs, out):
    attrs["points"] = int(np.size(out))


def _verdict(attrs, args, kwargs, report):
    attrs["verdict"] = report.verdict


def _sweep(attrs, args, kwargs, res):
    attrs["draws"] = int(res["draws"])


def _cli_main(attrs, args, kwargs, rc):
    argv = list(args[0]) if args else list(kwargs.get("argv") or [])
    if "--out-dir" in argv:
        out_dir = argv[argv.index("--out-dir") + 1]
        attrs["bytes"] = sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())


CHECKS = ("check_A", "check_A_eps_L", "check_A_eps_R", "check_OK", "check_W1",
          "check_W2")

HOOKS = (
    [
        (solver, "find_lambda1", "solver.find_lambda1", _find_lambda1),
        (solver, "shoot", "solver.shoot", _shoot),
        (solver, "solve_ivp", "solver.solve_ivp", _solve_ivp),
        (solver, "brentq", "solver.brentq", None),
        (solver, "rayleigh_minimize", "solver.rayleigh_minimize", _rayleigh),
        (solver, "make_mesh", "solver.make_mesh", None),
        (quadrature, "integrate", "quadrature.integrate", _integrate),
        (quadrature, "interval_integrals", "quadrature.interval_integrals", _interval),
        (quadrature.LeftCumulative, "__call__", "quadrature.LeftCumulative", _cumulative),
        (quadrature.RightCumulative, "__call__", "quadrature.RightCumulative", _cumulative),
    ]
    + [(conditions, c, f"conditions.{c}", _verdict) for c in CHECKS]
    + [
        (asymptotics, "sandwich_check", "asymptotics.sandwich_check", None),
        (degiorgi, "sweep", "degiorgi.sweep", _sweep),
        (cli, "main", "cli.main", _cli_main),
    ]
)


def _wrap(tracer, name, fn, annotate):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.spans[index].attrs["raised"] = type(exc).__name__
            raise
        finally:
            tracer.close(index)
        if annotate is not None:
            annotate(tracer.spans[index].attrs, args, kwargs, result)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Wrap every hook point present for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, annotate in HOOKS:
            original = owner.__dict__.get(attr)
            if original is None:
                tracer.absent.add(name)
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, annotate))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


class _Index:
    """Span lookups shared by the metric definitions."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.duration
        self.self_time = [s.duration - c for s, c in zip(self.spans, covered)]

    def named(self, name):
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def ancestors(self, i):
        p = self.spans[i].parent
        while p >= 0:
            yield p
            p = self.spans[p].parent

    def inside(self, i, name):
        return any(self.spans[a].name == name for a in self.ancestors(i))

    def total(self, name, within=None):
        """Time covered by ``name`` spans (outermost only), optionally only
        those inside a ``within`` span."""
        return sum(
            self.spans[i].duration for i in self.named(name)
            if not self.inside(i, name) and (within is None or self.inside(i, within))
        )

    def self_total(self, name):
        return sum(self.self_time[i] for i in self.named(name))

    def attr_sum(self, name, key):
        return sum(self.spans[i].attrs.get(key, 0) for i in self.named(name))


def _ratio(num, den):
    return num / den if den else 0.0


def _solver(ix):
    shoots = ix.named("solver.shoot")
    steps = ix.attr_sum("solver.solve_ivp", "steps")
    shoot_s = ix.total("solver.shoot")
    roots = len(ix.named("solver.brentq"))
    in_root = sum(1 for i in shoots if ix.inside(i, "solver.brentq"))
    traced = [ix.spans[i].attrs.get("want_trace", False) for i in shoots]
    # _eigenpair_from_shoot re-shoots below lambda while the trace is not
    # positive: a trace shoot right after another one is such a nudge
    nudges = sum(1 for a, b in zip(traced, traced[1:]) if a and b)
    rungs = ix.attr_sum("solver.find_lambda1", "rungs")
    ladder_s = sum(ix.spans[i].duration for i in ix.named("solver.find_lambda1")
                   if ix.spans[i].attrs.get("rungs", 0) > 0)
    ray_s = ix.total("solver.rayleigh_minimize")
    iters = ix.attr_sum("solver.rayleigh_minimize", "iters")
    node_iters = sum(ix.spans[i].attrs.get("iters", 0) * ix.spans[i].attrs.get("nodes", 0)
                     for i in ix.named("solver.rayleigh_minimize"))
    cum_in_ray = (ix.total("quadrature.LeftCumulative", within="solver.rayleigh_minimize")
                  + ix.total("quadrature.RightCumulative", within="solver.rayleigh_minimize"))
    return [
        ("solver.shoots", len(shoots), "count", ["solver.shoot"]),
        ("solver.steps", steps, "count", ["solver.solve_ivp"]),
        ("solver.rhs_evals", ix.attr_sum("solver.solve_ivp", "nfev"), "count",
         ["solver.solve_ivp"]),
        ("solver.shoot_s", shoot_s, "s", ["solver.shoot"]),
        ("solver.us_per_step", 1e6 * _ratio(shoot_s, steps), "us",
         ["solver.shoot", "solver.solve_ivp"]),
        ("solver.roots", roots, "count", ["solver.brentq"]),
        ("solver.shoots_per_root", _ratio(in_root, roots), "ratio",
         ["solver.shoot", "solver.brentq"]),
        ("solver.bracket_shoots",
         sum(1 for i, t in zip(shoots, traced) if not t and not ix.inside(i, "solver.brentq")),
         "count", ["solver.shoot", "solver.brentq"]),
        ("solver.trace_shoots_extra", nudges, "count", ["solver.shoot"]),
        ("solver.rungs", rungs, "count", ["solver.find_lambda1"]),
        ("solver.s_per_rung", _ratio(ladder_s, rungs), "s", ["solver.find_lambda1"]),
        ("solver.rayleigh_s", ray_s, "s", ["solver.rayleigh_minimize"]),
        ("solver.rayleigh_iters", iters, "count", ["solver.rayleigh_minimize"]),
        ("solver.rayleigh_us_per_node_iter", 1e6 * _ratio(ray_s, node_iters), "us",
         ["solver.rayleigh_minimize"]),
        ("solver.rayleigh_cum_share", _ratio(cum_in_ray, ray_s), "ratio",
         ["solver.rayleigh_minimize", "quadrature.LeftCumulative",
          "quadrature.RightCumulative"]),
        ("solver.mesh_s", ix.total("solver.make_mesh"), "s", ["solver.make_mesh"]),
    ]


def _quadrature(ix):
    cum = ["quadrature.LeftCumulative", "quadrature.RightCumulative"]
    cum_points = sum(ix.attr_sum(n, "points") for n in cum)
    cum_s = sum(ix.total(n) for n in cum)
    return [
        ("quadrature.integrate_calls", len(ix.named("quadrature.integrate")), "count",
         ["quadrature.integrate"]),
        ("quadrature.integrate_evals", ix.attr_sum("quadrature.integrate", "evals"),
         "count", ["quadrature.integrate"]),
        ("quadrature.integrate_s", ix.total("quadrature.integrate"), "s",
         ["quadrature.integrate"]),
        ("quadrature.cum_points", cum_points, "count", cum),
        ("quadrature.cum_s", cum_s, "s", cum),
        ("quadrature.us_per_cum_point", 1e6 * _ratio(cum_s, cum_points), "us", cum),
        ("quadrature.interval_cells",
         ix.attr_sum("quadrature.interval_integrals", "cells"), "count",
         ["quadrature.interval_integrals"]),
        ("quadrature.interval_s", ix.total("quadrature.interval_integrals"), "s",
         ["quadrature.interval_integrals"]),
    ]


def _conditions(ix):
    rows = [
        (f"conditions.{c[len('check_'):]}_s", ix.self_total(f"conditions.{c}"), "s",
         [f"conditions.{c}"])
        for c in CHECKS
    ]
    inconclusive = sum(
        1 for c in CHECKS for i in ix.named(f"conditions.{c}")
        if ix.spans[i].attrs.get("verdict") == conditions.INCONCLUSIVE
    )
    rows.append(("conditions.inconclusive", inconclusive, "count",
                 [f"conditions.{c}" for c in CHECKS]))
    return rows


def _asymptotics(ix):
    calls = ix.named("asymptotics.sandwich_check")
    hook = ["asymptotics.sandwich_check"]
    return [
        ("asymptotics.sandwich_calls", len(calls), "count", hook),
        ("asymptotics.sandwich_s", ix.total("asymptotics.sandwich_check"), "s", hook),
        ("asymptotics.window_skips",
         sum(1 for i in calls if ix.spans[i].attrs.get("raised") == "WindowError"),
         "count", hook),
    ]


def _degiorgi(ix):
    sweep_s = ix.total("degiorgi.sweep")
    hook = ["degiorgi.sweep"]
    return [
        ("degiorgi.sweep_s", sweep_s, "s", hook),
        ("degiorgi.draws_per_s", _ratio(ix.attr_sum("degiorgi.sweep", "draws"), sweep_s),
         "1/s", hook),
    ]


def _cli(ix):
    hook = ["cli.main"]
    return [
        ("cli.self_s", ix.self_total("cli.main"), "s", hook),
        ("cli.result_bytes", ix.attr_sum("cli.main", "bytes"), "bytes", hook),
    ]


LAYERS = (_solver, _quadrature, _conditions, _asymptotics, _degiorgi, _cli)


def layer_metrics(spans: list[Span], absent: set[str]) -> dict[str, tuple]:
    """Every per-layer metric as name -> (value, unit); value None if absent.

    A ratio whose base is 0 (for example shoots per root on a workload that
    finds no root) reads 0; its base is reported beside it.
    """
    ix = _Index(spans)
    out = {}
    for layer in LAYERS:
        for name, value, unit, hooks in layer(ix):
            missing = any(h in absent for h in hooks)
            out[name] = (None if missing else value, unit)
    return out


OP_COLUMNS = ("solver.shoots", "solver.steps", "solver.rhs_evals", "solver.shoot_s",
              "solver.rungs", "solver.rayleigh_s", "solver.rayleigh_cum_share",
              "quadrature.cum_s", "quadrature.integrate_s", "asymptotics.sandwich_s",
              "cli.self_s", "degiorgi.sweep_s")


def op_breakdown(tracer: Tracer) -> list[dict]:
    """Per-operation layer metrics (the non-zero ones of OP_COLUMNS) for the
    human-readable part of the traced run; each operation is one ``op`` span
    followed by its descendants."""
    rows = []
    spans = tracer.spans
    for i, s in enumerate(spans):
        if s.name != "op":
            continue
        k = i + 1
        while k < len(spans) and spans[k].start < s.end:
            k += 1
        sub = [Span(x.name, x.start, x.end, x.parent - i - 1 if x.parent > i else -1,
                    x.attrs) for x in spans[i + 1:k]]
        m = layer_metrics(sub, tracer.absent)
        row = {"op": s.attrs["op"], "wall_s": s.duration}
        row.update((c, m[c][0]) for c in OP_COLUMNS if m[c][0])
        rows.append(row)
    return rows
