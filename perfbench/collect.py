"""Run the benchmark over several seeds and summarize each metric.

Usage (from the repository root):

    python3 perfbench/collect.py --seeds 1-10 [--workloads backtest_sweep,...]
        [--seconds N] [--trace-seed 1] [--out perfbench/baseline.json]

For every workload it runs ``run.py`` once per seed with ``--trace 0``,
prints each run's end-to-end metrics (``fail_ratio`` included) with their
units, and then, per gated metric, the median and the quartile spread
(``statistics.quantiles(values, n=4)``, Q3 - Q1 over the median).  With
``--trace-seed`` it adds one traced run per workload.  ``--out`` writes
every run's result line plus the summaries, for comparing two commits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# readable lines of an untraced run that carry the end-to-end metrics
METRIC_LINES = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "fail_ratio",
                "peak_rss_mb")


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result object, with its readable lines under ``lines``."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    *lines, last = proc.stdout.strip().splitlines()
    return {**json.loads(last), "lines": lines}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace-seed", type=int)
    p.add_argument("--out")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    out: dict = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = {}
        for seed in seed_list(args.seeds):
            res = run_once(workload, seed, args.seconds, 0)
            runs[seed] = res
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
            for line in res["lines"]:
                if line.split(" ", 1)[0] in METRIC_LINES:
                    print("  " + line, flush=True)
        summary = {}
        for name in bounds if len(runs) > 1 else ():
            s = spread([r["metrics"][name]["value"] for r in runs.values()])
            summary[name] = s
            flag = "" if s["iqr_over_median"] < bounds[name] / 3 else \
                "  above a third of the bound"
            print(f"  {name:12s} median {s['median']:.6g}  spread {s['iqr_over_median']:.4f}"
                  f"  (bound {bounds[name]}){flag}", flush=True)
        entry = {"runs": runs, "summary": summary}
        if args.trace_seed is not None:
            entry["traced"] = run_once(workload, args.trace_seed, args.seconds, 1)
            print("\n".join(ln for ln in entry["traced"]["lines"]
                            if not ln.startswith("env ")), flush=True)
        out["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
