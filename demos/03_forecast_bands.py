"""Produce a 14-day level forecast with simulated confidence bands.

Runs both estimation steps on the Brazil panel, then builds the level
forecast: the log-scale recursion walks peer covariates forward, the
bias correction maps log predictions to level means, and the bands come
from simulating the shock sequence many times.

Run from the repository root:

    python3 demos/03_forecast_bands.py
"""

from datetime import timedelta
from pathlib import Path

from latecast.align import build_panel
from latecast.ecm import fit_ecm, simulate_bands
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

    first = select_by_bic(panel.window_y, panel.window_X,
                          panel.window_weights)
    fit = fit_ecm(panel, first)
    fpath = simulate_bands(fit, panel, 14, n_sims=10000, seed=11)

    print(f"second step on {len(fit.peer_names)} selected peers: "
          f"gamma {fit.gamma:.3f} (pull toward the peer curve), "
          f"sigma {fit.sigma2 ** 0.5:.4f}, "
          f"bias correction alpha {fit.alpha:.4f}")
    print(f"last observed: {panel.end_date} at "
          f"{target.counts[-1]:,} cases\n")

    print(f"  {'date':>12}  {'total':>10}  {'new':>8}  "
          f"{'rate%':>7}  {'95% band':>23}")
    for i, h in enumerate(fpath.horizons):
        day = panel.end_date + timedelta(days=int(h))
        band = f"[{fpath.lower[i]:>9,.0f}, {fpath.upper[i]:>9,.0f}]"
        print(f"  {day.isoformat():>12}  {fpath.level_hat[i]:10,.0f}  "
              f"{fpath.new_hat[i]:8,.0f}  {100 * fpath.rate_hat[i]:7.2f}  "
              f"{band:>23}")

    growth = fpath.level_hat[-1] / target.counts[-1] - 1.0
    print(f"\npoint path implies {growth:+.1%} growth over two weeks; "
          f"the band at day 14 spans "
          f"{fpath.upper[-1] / fpath.lower[-1]:.2f}x from low to high")


if __name__ == "__main__":
    main()
