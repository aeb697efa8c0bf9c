"""Run the benchmark in alternating parent/change pairs and judge the result.

Each pair runs ``perfbench/run.py`` once from each of two source trees,
the parent's and the change's, with the same workload, seed and run
length; the side that runs first alternates from pair to pair.  The
runs, each side's median and quartiles, the change's win count and the
verdict go to a JSON file.  A metric counts as a gain when the change
wins at least nine tenths of the pairs, ties counting for neither, and
the medians differ by more than the parent's interquartile range.  An
end-to-end metric counts as a regression when the change's median is
worse than the parent's by more than the bound in ``BENCHMARK.json``,
and as unresolved when the parent's own spread is wider than that bound
and not every change run beats every parent run.

Run from either tree:

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        --workload backtest_sweep --seeds 1 2 --pairs 10 --seconds 15 \\
        --out BENCH_name.json

``--trace`` makes traced runs instead, which report the per-layer
metrics; ``--relative-to`` adds each millisecond metric's ratio to one
base metric of the same run, since traced times are not scaled by the
calibration that the untraced metrics use.  A ``--out`` file that
exists is updated: runs of the same workload, seed and tracing are
replaced and every other key is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np


def quartiles(values) -> dict:
    """First quartile, median and third quartile by numpy's linear rule."""
    q1, med, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"q1": float(q1), "median": float(med), "q3": float(q3)}


def summarize(parent_runs, change_runs, better: str, bound: float | None = None) -> dict:
    """Compare paired runs of one metric, ``parent_runs[i]`` against
    ``change_runs[i]``; ``better`` is ``"higher"`` or ``"lower"``.

    ``gain`` applies the pair rule: the change wins at least nine tenths
    of the pairs and its median beats the parent's by more than the
    parent's interquartile range.  With a relative ``bound``,
    ``regression`` is ``"none"``, ``"beyond bound"`` or ``"unresolved"``.
    """
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same positive number of parent and change runs")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent_runs, change_runs))
    parent, change = quartiles(parent_runs), quartiles(change_runs)
    iqr = parent["q3"] - parent["q1"]
    gap = sign * (change["median"] - parent["median"])
    out = {
        "parent_runs": list(parent_runs),
        "change_runs": list(change_runs),
        "parent": parent,
        "change": change,
        "change_over_parent_median": (change["median"] / parent["median"]
                                      if parent["median"] else None),
        "parent_iqr": iqr,
        "change_wins": f"{wins} of {len(parent_runs)}",
        "gain": wins >= 0.9 * len(parent_runs) and gap > iqr,
    }
    if bound is not None:
        scale = abs(parent["median"])
        every_run_better = (min(change_runs) > max(parent_runs) if better == "higher"
                            else max(change_runs) < min(parent_runs))
        if -gap > bound * scale:
            out["regression"] = "beyond bound"
        elif iqr > bound * scale and not every_run_better:
            out["regression"] = "unresolved"
        else:
            out["regression"] = "none"
    return out


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One ``perfbench/run.py`` run from ``tree``; its final JSON line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(workload: str, seed: int, trace: bool, runs: dict, first: list,
          spec: dict, relative_to: str | None) -> dict:
    """The record of one workload and seed from both sides' run results."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {side: [{k: v["value"] for k, v in r["metrics"].items()} for r in rs]
              for side, rs in runs.items()}
    units = {k: v["unit"] for k, v in runs["change"][0]["metrics"].items()}
    if relative_to:
        for side_values in values.values():
            for run in side_values:
                base = run[relative_to]
                for name in [n for n in run if units[n] == "ms" and n != relative_to]:
                    run[f"{name}/{relative_to}"] = run[name] / base
                    units[f"{name}/{relative_to}"] = "ratio"
                    better[f"{name}/{relative_to}"] = better[name]
    metrics = {}
    for name in values["change"][0]:
        if name not in better:
            continue
        record = {"unit": units[name], "better": better[name]}
        record.update(summarize([r[name] for r in values["parent"]],
                                [r[name] for r in values["change"]],
                                better[name], bounds.get(name)))
        metrics[name] = record
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "pairs": len(first),
        "first_in_pair": first,
        "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="source tree of the parent commit")
    p.add_argument("change", type=Path, help="source tree of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--relative-to", default=None,
                   help="metric that every traced millisecond metric is divided by")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs and --seconds must be positive")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))

    doc = (json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists()
           else {"command": f"{' '.join(spec['command'])} --workload W --seed N "
                            f"--seconds S --trace 0|1"})
    doc["host"] = (f"{os.cpu_count()}-CPU {platform.machine()}, "
                   f"Python {platform.python_version()}, numpy {np.__version__}")
    records = doc.setdefault("runs", [])
    for seed in args.seeds:
        runs = {"parent": [], "change": []}
        first = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            first.append(order[0])
            for side in order:
                runs[side].append(run_once(trees[side], args.workload, seed,
                                           args.seconds, args.trace))
                print(f"{args.workload} seed {seed} pair {i + 1}/{args.pairs} {side} done",
                      file=sys.stderr, flush=True)
        record = judge(args.workload, seed, args.trace, runs, first, spec,
                       args.relative_to)
        record["seconds"] = args.seconds
        records[:] = [r for r in records if (r["workload"], r["seed"], r["trace"])
                      != (record["workload"], record["seed"], record["trace"])]
        records.append(record)
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
