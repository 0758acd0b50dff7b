"""Self-tests of the benchmark (not part of the package's suite).

    python3 -m pytest -q bench/test_bench.py
"""

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from radial_plap import solver  # noqa: E402

REFERENCE = workloads.load_reference()

# cheap operations that between them cross every layer: shooting with a
# matched ladder, the CLI pipeline with the sandwich check, check_all and
# the criterion-5 tails
CHEAP = {
    "lambda": ["ladder/rmk22-matched"],
    "pipeline": ["example/annulus-trivial", "example/rmk22", "check_all/rmk22",
                 "criterion5/tails", "degiorgi/hand-trace"],
}


def _cheap_ops(work_dir):
    ops = []
    for workload, names in CHEAP.items():
        ops += [op for op in workloads.build(workload, 0, work_dir) if op.name in names]
    return ops


def test_traced_and_untraced_answers_are_bit_identical(tmp_path):
    ops = _cheap_ops(tmp_path)
    shoot = solver.shoot
    plain = [op.run() for op in ops]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = [op.run() for op in ops]
    assert solver.shoot is shoot  # hooks removed again
    assert not tracer.absent
    assert {s.name for s in tracer.spans} >= {
        "solver.shoot", "solver.solve_ivp", "solver.brentq", "cli.main",
        "asymptotics.sandwich_check", "conditions.check_A",
        "quadrature.LeftCumulative"}
    for op, a, b in zip(ops, plain, traced):
        assert a.lambdas == b.lambdas, op.name
        assert a.verdicts == b.verdicts, op.name
        assert not workloads.check(op.name, a, REFERENCE).failed, op.name
        assert not workloads.check(op.name, b, REFERENCE).failed, op.name


def _replay(outcome, name="replay"):
    return workloads.Op(name, lambda: None, lambda _: outcome)


def _reference_outcome(prefix):
    out = workloads.Outcome()
    out.lambdas = {k: v for k, v in REFERENCE["lambdas"].items() if k.startswith(prefix)}
    out.verdicts = {k: v for k, v in REFERENCE["verdicts"].items() if k.startswith(prefix)}
    return out


def test_checker_fails_a_perturbed_lambda_and_a_flipped_verdict():
    clean = _reference_outcome("example/ex61")
    assert clean.lambdas and clean.verdicts
    nudged = _reference_outcome("example/ex61")
    nudged.lambdas["example/ex61"] *= 1.0 + 1e-9
    flipped = _reference_outcome("example/ex61")
    flipped.verdicts["example/ex61/W2"] = "holds"
    within = _reference_outcome("example/ex61")
    within.lambdas["example/ex61"] *= 1.0 + 1e-11
    ops = [_replay(o, "example/ex61") for o in (clean, nudged, flipped, within)]
    _, rows = run.run_pass(ops, range(len(ops)), REFERENCE)
    assert [v.failed for _, _, v, _ in rows] == [False, True, True, False]
    assert rows[1][2].drift == pytest.approx(1e-9, rel=1e-3)
    assert 0.0 < rows[3][2].drift < workloads.LAMBDA_RTOL


def test_checker_fails_raising_nonfinite_and_unknown_answers():
    nan = workloads.Outcome(lambdas={"example/ex61": math.nan})
    unknown = workloads.Outcome(lambdas={"example/nowhere": 1.0})
    oracle = workloads.Outcome(problems=["exit code 1"])
    no_lambda = _reference_outcome("example/ex61")
    del no_lambda.lambdas["example/ex61"]
    no_verdict = _reference_outcome("check_all/ex61")
    del no_verdict.verdicts["check_all/ex61/W2"]

    def boom(_):
        raise solver.SolverError("no bracket")

    ops = [_replay(nan), _replay(unknown), _replay(oracle),
           _replay(no_lambda, "example/ex61"), _replay(no_verdict, "check_all/ex61"),
           workloads.Op("raises", lambda: None, boom)]
    _, rows = run.run_pass(ops, range(len(ops)), REFERENCE)
    assert all(v.failed for _, _, v, _ in rows)


def test_same_seed_same_order_and_draws(tmp_path):
    def orders(seed):
        return list(itertools.islice(workloads.pass_orders(11, seed), 3))

    assert orders(7) == orders(7)
    assert orders(7) != orders(8)
    assert workloads.rmk23_draws(7) == workloads.rmk23_draws(7)
    assert workloads.rmk23_draws(7) != workloads.rmk23_draws(8)

    def sweep_seeds(seed):
        return [op.make() for op in workloads.build("pipeline", seed, tmp_path)
                if op.name.startswith("degiorgi/sweep")]

    assert sweep_seeds(7) == sweep_seeds(7)
    assert sweep_seeds(7) != sweep_seeds(8)


def test_every_workload_instance_has_a_reference(tmp_path):
    for workload in workloads.WORKLOADS:
        names = [op.name for op in workloads.build(workload, 0, tmp_path)]
        assert len(names) == len(set(names))
    keys = set(REFERENCE["lambdas"])
    for name in workloads.DUAL_INSTANCES:
        assert {f"dual/{name}/shoot", f"dual/{name}/rayleigh"} <= keys
    for name in workloads.LADDERS:
        assert f"ladder/{name}/extrapolated" in keys


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "pipeline", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
