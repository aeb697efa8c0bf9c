"""latecast benchmark: one closed-loop workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics with no
tracing; with ``--trace 1`` it runs every operation untraced and traced
side by side, and reports the per-layer metrics.  Readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("backtest_sweep", "forecast_bands", "large_panel")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREAD_CAP = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "latecast" / "__init__.py").is_file() or not (
            ROOT / "fixtures").is_dir():
        print(f"perfbench: no latecast source tree (src/latecast, fixtures) under {ROOT}",
              file=sys.stderr)
        return 2
    # cap native thread pools before numpy loads, here and in every child
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import checks, measure
    from perfbench.workloads import OUT_DIR, WORKLOADS

    (ROOT / OUT_DIR).mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](ROOT, args.seed, checks.load_reference())
    wl.setup()

    env = measure.environment(ROOT, THREAD_VARS, THREAD_CAP)
    if args.trace:
        result = measure.traced_run(wl, args.seconds, env)
    else:
        result = measure.untraced_run(wl, args.seconds, env)
    measure.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
