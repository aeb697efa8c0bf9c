"""Print a sha256 digest of every output a speed change must leave alone.

    python3 scripts/output_digests.py TREE > digests.txt

imports ``latecast`` from ``TREE/src``, runs its commands from ``TREE``
and prints one ``<sha256>  <name>`` line per output:

- ``backtest/<snapshot>/<target>``: the pickled ``run_backtest`` report
  of every target of both bundled snapshots at horizon 14 and window
  21, or the type and message of the error it raises;
- ``forecast/<snapshot>/<target>/lasso`` and ``.../seed<k>``: the
  pickled ``LassoFit`` and, for seeds 1-3, the pickled ``ForecastPath``
  of 10,000 simulated paths, for every target the pipeline fits;
- ``large_panel/seed<k>/y_hat`` and ``.../betas``: the log forecasts and
  the lasso path of the latecomer that the seed picks from a generated
  250-country, 1000-day panel, for seeds 1-3;
- ``command/<name>``: stdout, stderr and exit code of the four README
  commands and of the four demos.

Run it on two trees and ``diff`` the listings: an empty diff says that
every one of these outputs is byte-identical.  The inputs are made here
from the bundled fixtures alone, so a listing depends only on TREE's
``src/``, ``demos/`` and ``fixtures/``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import pickle
import subprocess
import sys
import warnings
from datetime import date
from pathlib import Path

import numpy as np

CASES = "fixtures/jhu_confirmed_snapshot_20200415.csv"
DEATHS = "fixtures/jhu_deaths_snapshot_20200415.csv"
SNAPSHOTS = {"cases": (CASES, 100), "deaths": (DEATHS, 10)}
HORIZON = 14
WINDOW = 21
N_SIMS = 10_000
SEEDS = (1, 2, 3)

README_COMMANDS = {
    "ingest-check": ["ingest-check", "--data-path", CASES, "--target", "Brazil"],
    "forecast": ["forecast", "--data-path", CASES, "--target", "Brazil",
                 "--seed", "11", "--h", "7"],
    "backtest": ["backtest", "--data-path", CASES, "--target", "Brazil",
                 "--seed", "11", "--h", "14",
                 "--origin-start", "2020-04-04", "--origin-end", "2020-04-14"],
    "report": ["report", "--data-path", CASES, "--deaths-path", DEATHS,
               "--target", "Brazil", "--seed", "11", "--h", "7"],
}


def digest(obj) -> str:
    """sha256 of ``obj`` pickled with protocol 4: equal bits, equal digest."""
    return hashlib.sha256(pickle.dumps(obj, protocol=4)).hexdigest()


def _split(series, name):
    return (next(s for s in series if s.name == name),
            [s for s in series if s.name != name])


def backtest_digests(tree: Path):
    from latecast import backtest, parse_jhu_wide
    from latecast.errors import LatecastError

    for snap, (path, threshold) in SNAPSHOTS.items():
        series = parse_jhu_wide((tree / path).read_text(encoding="utf-8"))
        config = backtest.BacktestConfig(threshold=threshold, window=WINDOW,
                                         horizon=HORIZON)
        for s in series:
            target, peers = _split(series, s.name)
            try:
                out = backtest.run_backtest(target, peers, config)
            except LatecastError as exc:
                out = (type(exc).__name__, str(exc))
            yield f"backtest/{snap}/{s.name}", digest(out)


def fit_pipeline(target, peers, threshold: int):
    """``build_panel``, ``select_by_bic`` and ``fit_ecm`` on one target."""
    from latecast import build_panel, fit_ecm, select_by_bic

    panel = build_panel(target, peers, threshold=threshold,
                        max_horizon=HORIZON, window=WINDOW)
    lasso = select_by_bic(panel.window_y, panel.window_X, panel.window_weights)
    return panel, lasso, fit_ecm(panel, lasso)


def forecast_digests(tree: Path, seeds=SEEDS, names=None):
    from latecast import parse_jhu_wide, simulate_bands
    from latecast.errors import DataFormatError

    for snap, (path, threshold) in SNAPSHOTS.items():
        series = parse_jhu_wide((tree / path).read_text(encoding="utf-8"))
        for s in series:
            if names is not None and s.name not in names:
                continue
            try:
                panel, lasso, fit = fit_pipeline(*_split(series, s.name), threshold)
            except DataFormatError:
                continue
            key = f"forecast/{snap}/{s.name}"
            yield f"{key}/lasso", digest(lasso)
            for seed in seeds:
                path = simulate_bands(fit, panel, HORIZON, n_sims=N_SIMS, seed=seed)
                yield f"{key}/seed{seed}", digest(path)


# The generated panel: every country borrows the daily log-growth profile
# of one fixture series, rescaled and jittered, from a seeded onset day,
# and grows at a geometrically decaying rate once the profile ends.  A
# late quarter starts 95 to 85 days before the calendar ends, so each of
# them is a latecomer with about 190 peers far enough ahead.
PANEL_START = date(2020, 1, 22)
LATE_SHARE = 0.24
EARLY_END = 0.6
LATE_BEFORE_END = (95, 85)
TAIL_DECAY = 0.97
MAX_LOG = math.log(5e8)


def fixture_profiles(tree: Path) -> list[tuple[str, np.ndarray]]:
    """Name and daily log-growth increments of every fixture country with
    at least ten days at one or more, in file order; read without
    ``latecast``."""
    profiles = []
    for path, _ in SNAPSHOTS.values():
        with open(tree / path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        totals: dict[str, np.ndarray] = {}
        for row in rows:
            totals[row[1]] = totals.get(row[1], 0) + np.array([float(c) for c in row[4:]])
        for name, counts in totals.items():
            positive = counts[counts >= 1]
            if len(positive) >= 10:
                profiles.append((name, np.diff(np.log(np.maximum.accumulate(positive)))))
    return profiles


def generate_panel(tree: Path, seed: int, n_countries: int = 250,
                   n_days: int = 1000) -> tuple[list, list[str]]:
    """The generated countries as ``CountrySeries``, and the latecomers' names."""
    from latecast.ingest import CountrySeries

    rng = np.random.default_rng(seed)
    profiles = fixture_profiles(tree)
    is_late = np.zeros(n_countries, dtype=bool)
    is_late[rng.choice(n_countries, int(round(LATE_SHARE * n_countries)),
                       replace=False)] = True
    series, late = [], []
    for i in range(n_countries):
        base_name, profile = profiles[rng.integers(len(profiles))]
        if is_late[i]:
            lo, hi = n_days - LATE_BEFORE_END[0], n_days - LATE_BEFORE_END[1]
        else:
            lo, hi = 0, int(EARLY_END * n_days)
        onset = int(rng.integers(lo, hi + 1))
        n = n_days - onset
        scale = rng.uniform(0.7, 1.3)
        steps = np.empty(n)
        k = min(len(profile), n)
        steps[:k] = scale * profile[:k]
        steps[k:] = scale * float(np.mean(profile[-7:])) * TAIL_DECAY ** np.arange(1, n - k + 1)
        steps *= np.exp(rng.normal(0.0, 0.15, n))
        log_c = math.log(rng.integers(1, 30)) + np.concatenate([[0.0], np.cumsum(steps[1:])])
        counts = np.zeros(n_days, dtype=np.int64)
        counts[onset:] = np.floor(np.exp(np.minimum(log_c, MAX_LOG)))
        name = f"{base_name} {i:03d}"
        series.append(CountrySeries(name, PANEL_START, np.maximum.accumulate(counts)))
        if is_late[i]:
            late.append(name)
    return series, late


def large_panel_digests(tree: Path, seeds=SEEDS):
    from latecast.ecm import forecast_log

    for seed in seeds:
        series, late = generate_panel(tree, seed)
        name = late[np.random.default_rng(seed).integers(len(late))]
        panel, lasso, fit = fit_pipeline(*_split(series, name), 100)
        yield f"large_panel/seed{seed}/y_hat", digest(forecast_log(fit, panel, HORIZON))
        yield f"large_panel/seed{seed}/betas", digest(lasso.betas)


def command_digests(tree: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)
    runs = {f"command/{name}": ["-m", "latecast", *argv]
            for name, argv in README_COMMANDS.items()}
    for demo in sorted((tree / "demos").glob("*.py")):
        runs[f"command/{demo.stem}"] = [str(demo.relative_to(tree))]
    for name, argv in runs.items():
        proc = subprocess.run([sys.executable, *argv], cwd=tree, env=env,
                              capture_output=True, timeout=300)
        yield name, digest((proc.stdout, proc.stderr, proc.returncode))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: output_digests.py TREE", file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    sys.path.insert(0, str(tree / "src"))
    warnings.simplefilter("ignore")
    for part in (backtest_digests, forecast_digests, large_panel_digests,
                 command_digests):
        for name, value in part(tree):
            print(f"{value}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
