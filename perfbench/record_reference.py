"""Record the correctness references the workloads compare against.

Usage (from the repository root, at the commit that defines them):

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: the workload definitions that must not
drift with the program (backtest pairs, forecast targets), the stdout
digest of each README command, backtest matrices and point forecasts
for every seed, and bands and large-panel forecasts for the default
seed.  Every backtest origin is classified fitted, refused (DataFormatError)
or failed (EstimationError, ConvergenceError included).
"""

from __future__ import annotations

import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr
from datetime import date
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    import warnings

    from latecast import align, backtest, ecm
    from latecast.errors import DataFormatError

    from perfbench import checks, measure, workloads as W
    from perfbench.panelgen import generate_panel

    warnings.simplefilter("ignore")
    env = W.child_env(ROOT)
    ref: dict = {"commit": measure.git_commit(ROOT), "default_seed": checks.DEFAULT_SEED}

    ref["cli"] = {}
    for name, argv in W.README_COMMANDS.items():
        proc = subprocess.run([sys.executable, "-m", "latecast", *argv], cwd=ROOT,
                              env=env, capture_output=True, check=True)
        ref["cli"][name] = checks.digest(proc.stdout)

    series = W.load_snapshots(ROOT)
    ref["backtest_pairs"], ref["backtest"] = [], {}
    ref["forecast_targets"], ref["forecast"] = [], {}
    for snap, (_, threshold) in W.SNAPSHOTS.items():
        for s in series[snap]:
            target, peers = W.split(series[snap], s.name)
            key = f"{snap}/{s.name}"
            config = backtest.BacktestConfig(threshold=threshold, window=W.WINDOW,
                                             horizon=W.HORIZON)
            try:
                report = backtest.run_backtest(target, peers, config)
            except DataFormatError:
                pass
            else:
                entry = {"fitted": {}, "failed": [], "refused": []}
                for origin, column in sorted(report.matrix.items()):
                    entry["fitted"][origin.isoformat()] = [column[d] for d in sorted(column)]
                for skip in report.skipped:
                    cls = checks.rerun_origin(target, peers, config,
                                              date.fromisoformat(skip["origin"]))
                    entry[cls].append(skip["origin"])
                ref["backtest_pairs"].append([snap, s.name])
                ref["backtest"][key] = entry
            try:
                with redirect_stderr(io.StringIO()):
                    panel, fit, efit = W.fit_pipeline(target, peers, threshold)
            except DataFormatError:
                continue
            path = ecm.simulate_bands(efit, panel, W.HORIZON, n_sims=W.N_SIMS,
                                      seed=checks.DEFAULT_SEED)
            ref["forecast_targets"].append([snap, s.name])
            ref["forecast"][key] = {
                "y_hat": path.y_hat.tolist(),
                "level_hat": path.level_hat.tolist(),
                "bands": {f: getattr(path, f).tolist() for f in checks.BAND_FIELDS},
            }

    gen = generate_panel(ROOT / "fixtures", checks.DEFAULT_SEED)
    wide = align.parse_jhu_wide(gen.wide_text)
    ref["large_panel"] = {}
    for name in gen.late:
        target, peers = W.split(wide, name)
        panel, fit, efit = W.fit_pipeline(target, peers, 100)
        ref["large_panel"][name] = ecm.forecast_log(efit, panel, W.HORIZON).tolist()

    out = Path(__file__).resolve().parent / "reference.json"
    text = json.dumps(ref, indent=1, sort_keys=True)
    # one line per list of numbers or of dates, so the file stays readable
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]", text)
    out.write_text(text + "\n", encoding="utf-8")
    n_origins = sum(len(e["fitted"]) + len(e["failed"]) + len(e["refused"])
                    for e in ref["backtest"].values())
    print(f"wrote {out.relative_to(ROOT)}: {len(ref['backtest_pairs'])} backtest pairs, "
          f"{n_origins} origins, {len(ref['forecast_targets'])} forecast targets, "
          f"{len(ref['large_panel'])} large-panel targets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
