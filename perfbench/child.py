"""Time one cold set-up of a workload in a fresh process.

Usage: python3 perfbench/child.py WORKLOAD SEED

Imports ``latecast`` and runs the workload's set-up once (fixtures,
generated inputs, one warm-up operation), then prints one JSON object
with the seconds each part took.  ``run.py`` starts several of these and
reports the median of their sums as ``setup_s``, so a one-time cost stays
in the figure whether the program pays it at import or at a first call.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    t0 = time.perf_counter()
    import latecast.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    from perfbench import checks
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[name](ROOT, seed, checks.load_reference())
    t0 = time.perf_counter()
    wl.setup()
    print(json.dumps({"import_s": import_s, "setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
