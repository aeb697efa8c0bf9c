"""Align a late-starting country with earlier peers on the tau scale.

Loads the bundled snapshot, re-indexes every series to days since the
100th case, and shows what the regression panel looks like: the target
vector, the peer matrix rows that extend past the target's last day,
and the duplication weights on the estimation window.

Run from the repository root:

    python3 demos/01_alignment.py
"""

from pathlib import Path

import numpy as np

from latecast.align import build_panel
from latecast.ingest import parse_jhu_wide

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main():
    text = (FIXTURES / "jhu_confirmed_snapshot_20200415.csv").read_text()
    series = parse_jhu_wide(text)
    target = next(s for s in series if s.name == "Brazil")
    peers = [s for s in series if s.name != "Brazil"]

    panel = build_panel(target, peers, threshold=100, max_horizon=14,
                        window=21)

    print(f"target: {panel.target_name}")
    print(f"tau=1 on calendar date {panel.start_date} "
          f"(first day at or above 100 cases)")
    print(f"aligned length T={panel.tau_len} days, "
          f"peer matrix {panel.X.shape[0]} x {panel.X.shape[1]}")
    print(f"peers kept: {', '.join(panel.peer_names)}")
    if panel.drop_log:
        dropped = ", ".join(e["peer"] for e in panel.drop_log)
        print(f"peers dropped (not enough tau history): {dropped}")

    print("\nfirst and last rows of the panel (log counts):")
    header = ["tau", "date", "y"] + list(panel.peer_names[:4])
    print("  " + "  ".join(f"{h:>10}" for h in header))
    for tau in [1, 2, panel.tau_len - 1, panel.tau_len]:
        row = [f"{tau:>10d}", f"{panel.date_at(tau)}",
               f"{panel.y[tau - 1]:10.4f}"]
        row += [f"{v:10.4f}" for v in panel.X[tau - 1, :4]]
        print("  " + "  ".join(row))

    w = panel.window_weights
    print(f"\nestimation window: last {panel.window} days, "
          f"duplication weights tail {w[-6:].astype(int).tolist()}")
    print("the newest observations carry the largest weights, so the "
          "fit leans on the most recent epidemic shape")

    beyond = panel.X.shape[0] - panel.tau_len
    print(f"\npeer rows beyond the target's last day: {beyond} "
          f"(these are the observed covariates the forecast will use)")
    print(f"example: at forecast horizon 3 the model reads "
          f"{panel.peer_names[0]} at its own tau={panel.tau_len + 3}, "
          f"calendar {panel.peer_date_at(panel.peer_names[0], panel.tau_len + 3)}")


if __name__ == "__main__":
    main()
