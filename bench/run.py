"""radial-plap benchmark: one workload per run, answers checked, metrics printed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics with tracing off:
set-up time (the median of fresh interpreters that import the package and
build the workload's problems), then passes over the workload's operations
until ``--seconds`` have been measured, two passes at least.  With
``--trace 1`` it makes one untraced and one traced pass and reports the
per-layer metrics and the tracing overhead.

Every operation's answers are checked against its oracle and against the
reference table in ``reference.json``.  The text lines print every metric;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, which holds the
metrics that BENCHMARK.json lists for the mode.  The exit code is 1 when any
operation failed.
"""

from __future__ import annotations

import os

# pin every BLAS/OpenMP pool before numpy is imported; the package's own
# RADIAL_PLAP_THREADS keeps its default of 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RADIAL_PLAP_THREADS", None)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
SETUP_SAMPLES = 5
# wall_s is a median over passes, and pipeline's byte-identity oracle
# needs a first pass to compare with
MIN_PASSES = 2


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(workload, seed):
    """Median wall time of a fresh interpreter that imports the package and
    builds the workload's problems, as every CLI user pays on each run."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_pass(ops, order, reference, tracer=None):
    """One pass in the given order: (wall, [(op name, seconds, CheckResult, outcome)])."""
    import workloads

    rows = []
    t_pass = time.perf_counter()
    for i in order:
        op = ops[i]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = op.run()
            else:
                with tracer.span("op", op=op.name):
                    outcome = op.run()
            dt = time.perf_counter() - t0
            verdict = workloads.check(op.name, outcome, reference)
        except Exception:
            dt = time.perf_counter() - t0
            outcome = None
            verdict = workloads.CheckResult(True, 0.0, [traceback.format_exc(limit=3)])
        rows.append((op.name, dt, verdict, outcome))
    return time.perf_counter() - t_pass, rows


def environment():
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "radial_plap" / "__init__.py").is_file():
        print(f"radial_plap sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import radial_plap
    import workloads

    if Path(radial_plap.__file__).resolve().parent != SRC / "radial_plap":
        print(f"imported radial_plap from {radial_plap.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # set-up is an end-to-end metric: the traced run does not report it
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    reference = workloads.load_reference()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir()
    try:
        ops = workloads.build(args.workload, args.seed, WORK_DIR)
        if args.trace:
            result = _traced(ops, args, reference)
        else:
            result = _untraced(ops, args, reference, setup_s)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    metrics, passes, notes = result
    rows = [r for _, pass_rows in passes for r in pass_rows]
    attempted = len(rows)
    failed = sum(1 for r in rows if r[2].failed)
    drift = max(r[2].drift for r in rows)
    for name, _, verdict, _ in rows:
        for reason in verdict.reasons:
            print(f"FAILED {name}: {reason}")
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"operations {attempted}")
    metrics["fail_frac"] = _metric(failed / attempted, "ratio")
    metrics["lambda_drift_max"] = _metric(drift, "ratio")
    for name, m in metrics.items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:34s} {value} {m['unit']}")
    for line in notes:
        print(f"  {line}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in _listed(args.trace)},
    }))
    return 0 if failed == 0 else 1


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _listed(trace):
    """The metrics BENCHMARK.json lists for this mode, in its order; the
    result line carries exactly these, the text lines every metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _untraced(ops, args, reference, setup_s):
    import workloads

    passes = []
    t0 = time.perf_counter()
    for order in workloads.pass_orders(len(ops), args.seed):
        passes.append(run_pass(ops, order, reference))
        if len(passes) >= MIN_PASSES and time.perf_counter() - t0 >= args.seconds:
            break
    walls = [w for w, _ in passes]
    op_times = [dt for _, rows in passes for _, dt, _, _ in rows]
    worst = [max(dt for _, dt, _, _ in rows) for _, rows in passes]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "op_s_p50": _metric(statistics.median(op_times), "s"),
        "op_s_worst": _metric(statistics.median(worst), "s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
    }
    notes = [f"pass wall_s: {' '.join(f'{w:.4f}' for w in walls)}",
             f"op_s_p50 samples: {len(op_times)}"]
    return metrics, passes, notes


def _traced(ops, args, reference):
    import tracing
    import workloads

    first, second = itertools.islice(workloads.pass_orders(len(ops), args.seed), 2)
    plain = run_pass(ops, first, reference)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = run_pass(ops, second, reference, tracer)
    same = _same_answers(plain[1], traced[1])
    for name, _, verdict, _ in traced[1]:
        if name in same and not same[name]:
            verdict.failed = True
            verdict.reasons.append("traced answers differ from untraced ones")
    metrics = {name: _metric(v, unit)
               for name, (v, unit) in tracing.layer_metrics(tracer.spans,
                                                            tracer.absent).items()}
    metrics["trace.overhead"] = _metric(traced[0] / plain[0], "ratio")
    metrics["trace.spans"] = _metric(len(tracer.spans), "count")
    notes = [f"untraced pass {plain[0]:.4f} s, traced pass {traced[0]:.4f} s"]
    notes += [f"op {json.dumps(row)}" for row in tracing.op_breakdown(tracer)]
    notes += [f"hook point {name} absent: its counters are reported as absent"
              for name in sorted(tracer.absent)]
    return metrics, [plain, traced], notes


def _same_answers(rows_a, rows_b):
    """op name -> whether both passes gave bit-identical lambdas and verdicts."""
    a = {name: out for name, _, _, out in rows_a if out is not None}
    b = {name: out for name, _, _, out in rows_b if out is not None}
    return {
        name: a[name].lambdas == b[name].lambdas and a[name].verdicts == b[name].verdicts
        for name in a.keys() & b.keys()
    }


if __name__ == "__main__":
    sys.exit(main())
