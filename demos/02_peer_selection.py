"""Pick the peer countries that explain the target's level curve.

Fits the penalized level regression over the whole penalty path on the
Brazil panel and prints how the information criterion moves as peers
enter, ending with the selected support and its coefficients.

Run from the repository root:

    python3 demos/02_peer_selection.py
"""

from pathlib import Path

import numpy as np

from latecast.align import build_panel
from latecast.ingest import parse_jhu_wide
from latecast.lasso import select_by_bic

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main():
    text = (FIXTURES / "jhu_confirmed_snapshot_20200415.csv").read_text()
    series = parse_jhu_wide(text)
    target = next(s for s in series if s.name == "Brazil")
    peers = [s for s in series if s.name != "Brazil"]
    panel = build_panel(target, peers, threshold=100, max_horizon=14,
                        window=21)

    fit = select_by_bic(panel.window_y, panel.window_X,
                        panel.window_weights)

    print(f"candidate peers: {len(panel.peer_names)}, "
          f"window K={panel.window} days with duplication weights")
    print("\npenalty path (every 10th point):")
    print(f"  {'lambda':>12}  {'bic':>10}  support")
    for lam, beta, bic_val in fit.path[::10]:
        names = [panel.peer_names[j] for j in np.flatnonzero(beta)]
        print(f"  {lam:12.6f}  {bic_val:10.2f}  {', '.join(names) or '(empty)'}")

    print(f"\nselected lambda {fit.lambda_:.6f} with BIC {fit.bic:.2f}")
    print("selected peers and their log-level coefficients:")
    for j in fit.support:
        print(f"  {panel.peer_names[j]:>14}: {fit.beta[j]: .4f}")
    print("\na coefficient near 1 means the target tracks that peer's "
          "curve one-for-one at the same epidemic age; several smaller "
          "coefficients mean the target blends their shapes")


if __name__ == "__main__":
    main()
