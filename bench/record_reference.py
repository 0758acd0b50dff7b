"""Write ``reference.json``: every lambda and verdict the two workloads
compute, keyed by instance, as the package computes them now.

    python3 bench/record_reference.py

Run it only for a documented accuracy change; the benchmark fails any
operation whose lambda moves by more than 1e-10 relative from this table.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402


def main():
    work_dir = BENCH_DIR.parent / ".bench_work"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    lambdas, verdicts = {}, {}
    try:
        for name in workloads.WORKLOADS:
            for op in workloads.build(name, 0, work_dir):
                out = op.run()
                if out.problems:
                    raise SystemExit(f"{op.name}: oracle failed: {out.problems}")
                lambdas.update(out.lambdas)
                verdicts.update(out.verdicts)
                print(op.name, flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    payload = {"lambdas": dict(sorted(lambdas.items())),
               "verdicts": dict(sorted(verdicts.items()))}
    workloads.REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
