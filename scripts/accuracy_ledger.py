"""Write the accuracy ledger ACCURACY.json: the backtest sweep's scores.

The sweep backtests every target of both bundled snapshots that has a
feasible origin, against all the other countries of its snapshot, at
window 21 and horizon 14.  It is scored on two replays:

- ``published``: ``run_backtest`` as it is, which cuts only the target
  at each origin and aligns every peer on its full series;
- ``realtime``: every aligned peer is also cut at the origin, so only
  data dated on or before the origin enters a fit or a forecast.

For each snapshot, and for both together, the ledger records the fitted
and skipped origins, the fitted origins whose record lists a
calendar-future peer value, the targets whose every origin fails, the
scored cells, the mean and median absolute percentage error (APE), the
mean APE per horizon, the worst cell and the share of cells over 100%.

Run from the repository root:

    PYTHONPATH=src python3 scripts/accuracy_ledger.py [--out ACCURACY.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from contextlib import contextmanager
from datetime import timedelta
from pathlib import Path

import numpy as np

from latecast import backtest
from latecast.align import to_tau
from latecast.errors import DataFormatError, NotLatecomerError

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import HORIZON, SNAPSHOTS, WINDOW, load_snapshots, split  # noqa: E402


@contextmanager
def realtime_peers():
    """Cut every aligned peer at the origin while ``run_backtest`` runs.

    The origin is the date of the last entry of the target prefix ``y``.
    Each column from ``_align_peers`` keeps its values dated on or
    before it, and a peer that crosses the threshold after it has none
    and is dropped as below threshold.
    """
    assemble = backtest._assemble_panel

    def cut_at_origin(target_name, y, start_date, aligned, max_horizon, window):
        origin = start_date + timedelta(days=len(y) - 1)
        cut = []
        for name, values, start, reason in aligned:
            if start is not None:
                # a negative slice bound would keep values, not drop them
                n = max((origin - start).days + 1, 0)
                values, reason = values[:n], reason if n else "below_threshold"
            cut.append((name, values, start, reason))
        return assemble(target_name, y, start_date, cut, max_horizon, window)

    backtest._assemble_panel = cut_at_origin
    try:
        yield
    finally:
        backtest._assemble_panel = assemble


def sweep(series: list, threshold: int) -> tuple[list, dict]:
    """Backtest every feasible target; return its cells and origin counts.

    A cell is ``(h, ape, target, origin, date)``.  A target whose every
    origin fails counts all its feasible origins as skipped.
    """
    config = backtest.BacktestConfig(threshold=threshold, window=WINDOW, horizon=HORIZON)
    cells: list[tuple] = []
    counts = {"targets": 0, "fitted": 0, "skipped": 0, "calendar_future": 0,
              "failed_whole": []}
    for target in series:
        try:
            _, start = to_tau(target, threshold)
            origins = backtest._feasible_origins(target, start, config)
        except (NotLatecomerError, DataFormatError):
            continue
        counts["targets"] += 1
        try:
            report = backtest.run_backtest(*split(series, target.name), config)
        except DataFormatError:
            counts["failed_whole"].append(target.name)
            counts["skipped"] += len(origins)
            continue
        counts["fitted"] += len(report.origins)
        counts["skipped"] += len(report.skipped)
        counts["calendar_future"] += sum(
            bool(r["calendar_future_peers"]) for r in report.origin_details)
        for origin, column in report.matrix.items():
            for day, forecast in column.items():
                actual = report.observed.get(day)
                if actual is None or actual <= 0:
                    continue
                ape = abs(forecast - actual) / actual * 100.0
                cells.append(((day - origin).days, ape, target.name, origin, day))
    return cells, counts


def summary(cells: list, counts: dict) -> dict:
    apes = np.array([c[1] for c in cells])
    horizons = np.array([c[0] for c in cells])
    worst = max(cells, key=lambda c: c[1])
    return {
        "targets": counts["targets"],
        "origins_fitted": counts["fitted"],
        "origins_skipped": counts["skipped"],
        "origins_with_calendar_future_peers": counts["calendar_future"],
        "targets_failed_whole": sorted(counts["failed_whole"]),
        "cells": len(cells),
        "mape_pct": float(apes.mean()),
        "median_ape_pct": float(np.median(apes)),
        "mape_by_horizon_pct": [float(apes[horizons == h].mean())
                                for h in range(1, HORIZON + 1)],
        "worst_cell": {"target": worst[2], "origin": worst[3].isoformat(),
                       "date": worst[4].isoformat(), "ape_pct": float(worst[1])},
        "share_over_100pct": float((apes > 100.0).mean()),
    }


def replay() -> dict:
    per_snapshot = {}
    pooled_cells: list = []
    pooled = {"targets": 0, "fitted": 0, "skipped": 0, "calendar_future": 0,
              "failed_whole": []}
    for snap, series in load_snapshots(ROOT).items():
        cells, counts = sweep(series, SNAPSHOTS[snap][1])
        per_snapshot[snap] = summary(cells, counts)
        pooled_cells += cells
        for key in ("targets", "fitted", "skipped", "calendar_future"):
            pooled[key] += counts[key]
        pooled["failed_whole"] += [f"{snap}/{name}" for name in counts["failed_whole"]]
    return {**per_snapshot, "all": summary(pooled_cells, pooled)}


def ledger() -> dict:
    # the fits' own warnings (unstable gamma, perfect fits) are not scores
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        published = replay()
        with realtime_peers():
            realtime = replay()
    return {
        "window": WINDOW,
        "horizon": HORIZON,
        "replays": {"published": published, "realtime": realtime},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, default=ROOT / "ACCURACY.json")
    args = p.parse_args(argv)
    args.out.write_text(json.dumps(ledger(), indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
