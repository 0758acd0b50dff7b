"""The two benchmark workloads, their operations and their oracles.

An operation is one user-visible question answered through the package's
public API.  Each builds its own ``ProblemSpec`` when it runs, so no cached
envelope carries over from one pass to the next, as for a CLI user who
rebuilds them on every run.  An operation returns an :class:`Outcome`: the
lambda values it computed (keyed by instance, never by pass order), the
verdicts it reached, and the oracle checks it failed.  :func:`check` then
compares the outcome with the reference table recorded in
``reference.json``.

The instance sets are the paper's presets and the acceptance-suite
instances and do not depend on the seed; the seed sets the rmk23 draws and
the degiorgi sweep seeds in ``pipeline`` and the order of the operations in
every pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from radial_plap import cli
from radial_plap import conditions as C
from radial_plap import degiorgi as D
from radial_plap import presets as P
from radial_plap import solver as S
from radial_plap.weights import INF, PowerLogPiece, ProblemSpec, WeightModel

WORKLOADS = ("lambda", "pipeline")

# the ROADMAP's accuracy rule: lambda_1 agrees with the previous
# implementation to this relative tolerance
LAMBDA_RTOL = 1e-10

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class Outcome:
    lambdas: dict[str, float] = field(default_factory=dict)
    verdicts: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def expect(self, ok, message):
        if not ok:
            self.problems.append(message)


@dataclass
class Op:
    """``make`` builds the operation's problems; ``solve`` answers them."""

    name: str
    make: Callable[[], Any]
    solve: Callable[[Any], Outcome]

    def run(self) -> Outcome:
        return self.solve(self.make())


# ---------------------------------------------------------------------------
# lambda: acceptance criterion 3 (the dual method) and the exterior ladders
# ---------------------------------------------------------------------------

DUAL_INSTANCES = {
    "p=1.5 degenerate": (1.5, 3, 0.25, -0.2, -4.0),
    "p=2 degenerate": (2.0, 3, 0.5, -0.25, -4.0),
    "p=3 degenerate": (3.0, 3, 1.0, -0.5, -5.0),
    "p=2 singular": (2.0, 3, -0.5, -0.25, -4.0),
    "p=3 singular": (3.0, 4, -0.5, -0.25, -5.0),
}


def dual_instance(p, N, alpha, delta, tail, r2=8.0) -> ProblemSpec:
    """The finite-annulus instances of acceptance criterion 3."""
    v = WeightModel((PowerLogPiece(1.0, r2, 1.0, alpha),), 1.0)
    w = WeightModel(
        (PowerLogPiece(1.0, 2.0, 1.0, delta),
         PowerLogPiece(2.0, r2, 2.0**-tail, 0.0, tail)),
        1.0,
    )
    return ProblemSpec(N=N, p=p, R1=1.0, R2=r2, v=v, w=w)


def _dual_op(name, params):
    key = f"dual/{name}"

    def solve(ps):
        out = Outcome()
        eig_s = S.find_lambda1(ps, check=False)
        mesh = S.make_mesh(ps, n_core=4000)
        eig_r = S.rayleigh_minimize(ps, mesh)
        out.lambdas[f"{key}/shoot"] = eig_s.lam
        out.lambdas[f"{key}/rayleigh"] = eig_r.lam
        rel = abs(eig_s.lam - eig_r.lam) / eig_s.lam
        out.expect(rel <= 1e-3, f"shooting and Rayleigh differ by {rel:.2e}")
        out.expect(eig_s.zero_count == 0 and eig_r.zero_count == 0,
                   "eigenfunction has an interior zero")
        return out

    return Op(key, lambda: dual_instance(*params), solve)


# the exterior ladders whose first rung is cheap; criterion 9's ex61 ladders
# (about 18 s a pass together) are left out: a run makes two passes at least,
# and ten runs of each workload, twice, must fit in under an hour
LADDERS = {
    "ex62-dirichlet": ("ex62", "dirichlet", (4.0, 8.0, 16.0)),
    "ex62-matched": ("ex62", "matched", (4.0, 8.0, 16.0, 32.0)),
    "rmk22-matched": ("rmk22", "matched", (4.0, 8.0, 16.0, 32.0)),
}


def _ladder_op(name, preset, bc, rungs):
    key = f"ladder/{name}"

    def solve(ps):
        out = Outcome()
        eig = S.find_lambda1(ps, ladder=list(rungs), check=False, bc=bc)
        ladder = eig.diagnostics["ladder"]
        for r, lam in ladder:
            out.lambdas[f"{key}/R={r:g}"] = lam
        out.lambdas[f"{key}/extrapolated"] = eig.lam
        lams = [lam for _, lam in ladder]
        out.expect(len(lams) == len(rungs), f"ladder stopped after {len(lams)} rungs")
        if bc == "dirichlet":
            out.expect(all(b <= a for a, b in zip(lams, lams[1:])),
                       "Dirichlet rungs increase")
        return out

    return Op(key, lambda: P.get_preset(preset).problem, solve)


# ---------------------------------------------------------------------------
# pipeline: `radial-plap example <preset>` in-process
# ---------------------------------------------------------------------------


def _expect_preset_verdicts(out, verdicts, expected):
    """The condition verdicts a preset documents in ``expected``."""
    for cid in ("W1", "OK"):
        if cid in expected:
            got = verdicts.get(cid)
            out.expect(got == expected[cid], f"{cid} is {got}, expected {expected[cid]}")


def _digests(out_dir: Path) -> dict[str, str]:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out_dir.iterdir())
        if f.name != "manifest.json"
    }


def _example_op(name, work_dir: Path):
    key = f"example/{name}"
    runs = itertools.count()
    first_digests = []

    def solve(preset):
        out = Outcome()
        out_dir = work_dir / f"{name}-{next(runs)}"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["example", name, "--out-dir", str(out_dir)])
        out.expect(rc == 0, f"exit code {rc}")
        summary = json.loads((out_dir / "summary.json").read_text())
        for cid, verdict in summary["conditions"].items():
            out.verdicts[f"{key}/{cid}"] = verdict
        if "lambda1" in summary:
            out.lambdas[key] = summary["lambda1"]
        expected = preset.expected
        if "lambda1" in expected:
            lam = summary.get("lambda1", math.nan)
            rel = abs(lam - expected["lambda1"]) / expected["lambda1"]
            out.expect(rel <= 1e-6, f"lambda1 {lam!r} not within 1e-6 of pi^2")
        _expect_preset_verdicts(out, summary["conditions"], expected)
        for row in summary.get("asymptotics", []):
            if "skipped" in row:
                continue
            out.expect(row.get("pass") is True, f"sandwich row {row} did not pass")
            want = expected.get(f"{row['boundary']}_exponent")
            if want is not None:
                out.expect(row["theoretical_exponent"] == want,
                           f"{row['boundary']} exponent {row['theoretical_exponent']}, "
                           f"expected {want}")
        digests = _digests(out_dir)
        if not first_digests:
            first_digests.append(digests)
        out.expect(digests == first_digests[0], "result files differ from the first pass")
        return out

    return Op(key, lambda: P.get_preset(name), solve)


# ---------------------------------------------------------------------------
# pipeline: check_all, acceptance criteria 5 and 6
# ---------------------------------------------------------------------------


def _check_all_op(name):
    key = f"check_all/{name}"

    def solve(preset):
        out = Outcome()
        reports = {rep.condition_id: rep.verdict for rep in C.check_all(preset.problem)}
        for cid, verdict in reports.items():
            out.verdicts[f"{key}/{cid}"] = verdict
        _expect_preset_verdicts(out, reports, preset.expected)
        return out

    return Op(key, lambda: P.get_preset(name), solve)


def rmk23_draws(seed, n=10):
    """Random rmk23 parameters inside the ranges of acceptance criterion 5."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        N = int(rng.integers(3, 6))
        p = rng.uniform(1.2, N - 0.1)
        alpha = rng.uniform(-1.0, p - 1.0 - 1e-6)
        beta = rng.uniform(0.0, 2.0)
        alpha1 = rng.uniform(alpha - p + 1e-6, -1.0)
        beta1 = rng.uniform(-N, -p - 1e-6)
        draws.append(dict(p=p, N=N, alpha=alpha, beta=beta, alpha1=alpha1,
                          beta1=beta1))
    return draws


def _rmk23_op(seed):
    def solve(specs):
        out = Outcome()
        for i, ps in enumerate(specs):
            out.expect(C.check_W1(ps).holds, f"draw {i}: W1 does not hold")
            verdict = C.check_OK(ps).verdict
            out.expect(verdict == C.FAILS, f"draw {i}: OK is {verdict}, expected fails")
        return out

    return Op("criterion5/rmk23",
              lambda: [P.make_rmk23(**d) for d in rmk23_draws(seed)], solve)


def _tail_specs():
    specs = []
    for p in (2.0, 3.0):
        for N in (int(p) + 1, int(p) + 2, int(p) + 3):
            one = WeightModel.constant(1.0, 1.0, INF)
            for extra, verdict in ((0.0, C.FAILS), (-0.1, C.HOLDS)):
                w = WeightModel((PowerLogPiece(1.0, INF, 1.0, 0.0, -p + extra),), 1.0)
                ps = ProblemSpec(N=N, p=p, R1=1.0, R2=INF, v=one, w=w)
                specs.append((f"p={p:g} N={N} tail={-p + extra:g}", ps, verdict))
    return specs


def _tails_op():
    def solve(specs):
        out = Outcome()
        for label, ps, want in specs:
            got = C.check_A(ps).verdict
            out.expect(got == want, f"{label}: A is {got}, expected {want}")
        return out

    return Op("criterion5/tails", _tail_specs, solve)


def _sweep_op(alternative, seed):
    def solve(sweep_seed):
        res = D.sweep(1000, seed=sweep_seed, alternative=alternative, workers=1)
        out = Outcome()
        out.expect(res["counterexamples"] == 0,
                   f"{res['counterexamples']} counterexamples")
        return out

    return Op(f"degiorgi/sweep-{alternative}", lambda: seed, solve)


def _hand_trace_op():
    def make():
        return D.RecursionParams(K=1.0, eta=2.0, delta1=1.0, delta2=1.0,
                                 J0=0.25, n_max=80)

    def solve(params):
        trace = D.simulate(params)
        out = Outcome()
        exact = np.array_equal(trace.J, 2.0 ** -(np.arange(len(trace.log_J)) + 2))
        out.expect(exact, "hand trace J_n != 2^-(n+2)")
        return out

    return Op("degiorgi/hand-trace", make, solve)


# ---------------------------------------------------------------------------
# building, ordering and checking
# ---------------------------------------------------------------------------


def build(workload: str, seed: int, work_dir: Path | None = None) -> list[Op]:
    """The workload's operations in canonical order."""
    if workload == "lambda":
        return ([_dual_op(n, prm) for n, prm in DUAL_INSTANCES.items()]
                + [_ladder_op(n, *spec) for n, spec in LADDERS.items()])
    if workload == "pipeline":
        if work_dir is None:
            raise ValueError("pipeline needs a work directory")
        return (
            [_example_op(n, work_dir) for n in P.PRESET_NAMES]
            + [_check_all_op(n) for n in P.PRESET_NAMES]
            + [_rmk23_op(seed), _tails_op(),
               _sweep_op("a", 2 * seed), _sweep_op("b", 2 * seed + 1),
               _hand_trace_op()]
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def pass_orders(n_ops: int, seed: int):
    """The seed's operation order for each pass, one pass after another."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(range(n_ops), n_ops)


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


@dataclass
class CheckResult:
    failed: bool
    drift: float
    reasons: list[str]


def _owned(name: str, key: str) -> bool:
    """Whether a reference key belongs to the operation called ``name``."""
    return key == name or key.startswith(name + "/")


def check(name: str, outcome: Outcome, reference: dict) -> CheckResult:
    """Compare the outcome of operation ``name`` with the reference table.

    The operation fails when an oracle failed, a lambda is non-finite,
    missing from the table or more than LAMBDA_RTOL from it, a verdict
    differs from the table, or a lambda or verdict the table holds for the
    operation is missing from the outcome.  ``drift`` is the largest
    relative lambda difference seen.
    """
    reasons = list(outcome.problems)
    drift = 0.0
    ref_lams = reference["lambdas"]
    for kind, got in (("lambdas", outcome.lambdas), ("verdicts", outcome.verdicts)):
        for key in reference[kind]:
            if _owned(name, key) and key not in got:
                reasons.append(f"{key}: missing from the answers ({kind})")
    for key, lam in outcome.lambdas.items():
        if not math.isfinite(lam):
            reasons.append(f"{key}: non-finite lambda {lam!r}")
            continue
        if key not in ref_lams:
            reasons.append(f"{key}: no reference lambda")
            continue
        rel = abs(lam - ref_lams[key]) / abs(ref_lams[key])
        drift = max(drift, rel)
        if rel > LAMBDA_RTOL:
            reasons.append(f"{key}: lambda {lam!r} drifts {rel:.2e} from the reference")
    ref_verdicts = reference["verdicts"]
    for key, verdict in outcome.verdicts.items():
        if ref_verdicts.get(key) != verdict:
            reasons.append(f"{key}: verdict {verdict}, reference {ref_verdicts.get(key)}")
    return CheckResult(bool(reasons), drift, reasons)
