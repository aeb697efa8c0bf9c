"""Score the method by refitting at every origin and walking forward.

Replays April 2020 for Brazil: at each origin date Brazil's series is
cut at that day while the peers keep their full series (a selected
peer that supplies values dated after the origin is listed in that
origin's calendar_future_peers), both steps are refit, 14 days are
forecast, and the realized counts grade the result. Prints the error
summary and a corner of the forecast matrix.

Run from the repository root:

    python3 demos/04_rolling_backtest.py
"""

from datetime import date
from pathlib import Path

import numpy as np

from latecast.backtest import BacktestConfig, run_backtest
from latecast.ingest import parse_jhu_wide

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main():
    text = (FIXTURES / "jhu_confirmed_snapshot_20200415.csv").read_text()
    series = parse_jhu_wide(text)
    target = next(s for s in series if s.name == "Brazil")
    peers = [s for s in series if s.name != "Brazil"]

    cfg = BacktestConfig(window=21, horizon=14,
                         origin_start=date(2020, 4, 4),
                         origin_end=date(2020, 4, 14))
    report = run_backtest(target, peers, cfg)

    print(f"origins: {len(report.origins)} "
          f"({report.origins[0]} .. {report.origins[-1]}), "
          f"horizon {report.horizon} days, window {cfg.window}")
    print(f"total MAPE {report.mape_total:.2f}% over all realized "
          f"forecast cells")

    by_h = report.mape_by_horizon
    print("\nMAPE by horizon (%):")
    for h in range(1, report.horizon + 1):
        v = by_h[h - 1]
        bar = "#" * int(round(v * 4)) if np.isfinite(v) else ""
        label = f"{v:6.2f}" if np.isfinite(v) else "   n/a"
        print(f"  h={h:>2}: {label} {bar}")
    print("(n/a rows have no realized observation in the snapshot, and "
          "the rightmost horizons draw on very few cells; on average "
          "the long horizons err more than the short ones)")

    print("\nforecast matrix corner (first 3 origins, first 4 days):")
    for origin in report.origins[:3]:
        column = report.matrix[origin]
        cells = []
        for d in sorted(column)[:4]:
            obs = report.observed.get(d)
            err = (f"{100 * abs(column[d] - obs) / obs:5.1f}%"
                   if obs else "    -")
            cells.append(f"{d.day:>2}: {column[d]:>8,.0f} (err {err})")
        print(f"  origin {origin}: " + " | ".join(cells))

    for entry in report.skipped:
        print(f"skipped origin {entry['origin']}: {entry['reason']}")


if __name__ == "__main__":
    main()
