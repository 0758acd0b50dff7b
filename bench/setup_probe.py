"""Set-up step timed by ``run.py``: import the package in a fresh interpreter
and build every problem of one workload.

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402

for op in workloads.build(sys.argv[1], int(sys.argv[2]), BENCH_DIR.parent / ".bench_work"):
    op.make()
