"""Rolling-origin evaluation of the two-step pipeline.

At each origin only the target is cut: the peers enter with their full
series, and a selected peer that supplies values dated after the origin
is listed in ``calendar_flags``.  ``ecm.fit_origin`` refits both steps
as ``forecast`` does, and level forecasts one to H days out are stored.
Cells with a realized observation are scored by absolute percentage
error; aggregates are the mean over all scored cells, the worst single
cell, and the mean per forecasting horizon.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np

from .align import (
    DEFAULT_CASE_THRESHOLD,
    DEFAULT_HORIZON,
    DEFAULT_WINDOW,
    _align_peers,
    _assemble_panel,
    to_tau,
)
from .ecm import fit_origin, forecast_levels
from .errors import DataFormatError, LatecastError
from .ingest import CountrySeries

@dataclass
class BacktestConfig:
    threshold: int = DEFAULT_CASE_THRESHOLD
    window: int = DEFAULT_WINDOW
    horizon: int = DEFAULT_HORIZON
    origin_start: date | None = None
    origin_end: date | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.window < 2:
            raise ValueError("window must be >= 2")


@dataclass
class BacktestReport:
    """Forecast matrix plus scoring aggregates.

    ``matrix`` maps origin date to {target date: level forecast};
    ``observed`` holds realized levels for every target date that has
    one.  Origins whose fit failed are in ``skipped`` with the reason;
    peer values that were calendar-future at their origin are in
    ``flags``.  Each fitted origin has one ``origin_details`` entry: its
    selected peers, the fallback flag, gamma, alpha, and the ``knots``
    of its lasso path.  Percentages are in percent units (6.8 means 6.8%).
    """

    origins: list[date]
    matrix: dict[date, dict[date, float]]
    observed: dict[date, int]
    mape_total: float
    mape_worst: float
    mape_by_horizon: np.ndarray
    window: int
    horizon: int
    skipped: list[dict] = field(default_factory=list)
    flags: list[dict] = field(default_factory=list)
    origin_details: list[dict] = field(default_factory=list)


def score(matrix: dict[date, dict[date, float]],
          observed: dict[date, float]) -> tuple[float, float, np.ndarray]:
    """MAPE aggregates over every forecast cell with a realized value.

    The horizon of a cell is the day count from its origin to its
    target date.  Returns percentages; the by-horizon vector runs from
    h=1 to the largest scored horizon, NaN where a horizon has no
    scored cell.
    """
    per_horizon: dict[int, list[float]] = {}
    for origin, column in matrix.items():
        for target_date, forecast in column.items():
            actual = observed.get(target_date)
            if actual is None or actual <= 0:
                continue
            h = (target_date - origin).days
            ape = abs(forecast - actual) / actual * 100.0
            per_horizon.setdefault(h, []).append(ape)
    if not per_horizon:
        raise DataFormatError(
            "no forecast cell overlaps a realized observation"
        )
    max_h = max(per_horizon)
    by_h = np.full(max_h, np.nan)
    for h, apes in per_horizon.items():
        by_h[h - 1] = float(np.mean(apes))
    all_apes = [a for apes in per_horizon.values() for a in apes]
    return float(np.mean(all_apes)), float(np.max(all_apes)), by_h


def _feasible_origins(target: CountrySeries, start_date: date,
                      config: BacktestConfig) -> list[date]:
    # first origin needs window + 1 observations so every window row has
    # a one-day lag for the error-correction step
    first = start_date + timedelta(days=config.window)
    last = target.end
    if first > last:
        raise DataFormatError(
            f"no feasible origin: target {target.name!r} needs at least "
            f"{config.window + 1} aligned observations"
        )
    lo = max(first, config.origin_start or first)
    hi = min(last, config.origin_end or last)
    if lo > hi:
        requested = (f"{config.origin_start or 'start of data'} to "
                     f"{config.origin_end or 'end of data'}")
        raise DataFormatError(
            f"no feasible origin in the requested range {requested}: "
            f"target {target.name!r} has feasible origins {first} to {last}"
        )
    return [lo + timedelta(days=i) for i in range((hi - lo).days + 1)]


def _calendar_flags(panel, fit, origin: date) -> list[dict]:
    flags = []
    last_tau = panel.tau_len + panel.horizon
    for j, name in zip(fit.support, fit.peer_names):
        used_date = panel.peer_date_at(name, last_tau)
        if used_date > origin:
            flags.append({
                "origin": origin.isoformat(),
                "peer": name,
                "tau": last_tau,
                "date": used_date.isoformat(),
                "days_ahead": (used_date - origin).days,
            })
    return flags


def run_backtest(target: CountrySeries, peers: list[CountrySeries],
                 config: BacktestConfig | None = None) -> BacktestReport:
    """Refit daily over all feasible origins and score the forecasts.

    An origin is feasible once the target has window + 1 aligned
    observations.  Every series is aligned once; each origin's panel
    takes the prefix of the target's alignment observable on that date.
    A peer whose data cannot be aligned raises before any origin is fit.
    Origins whose fit raises are skipped and recorded; the report is
    partial rather than aborted.  Scoring uses the point forecasts only;
    no shock paths are simulated.
    """
    config = config or BacktestConfig()
    y, start_date = to_tau(target, config.threshold)
    origins = _feasible_origins(target, start_date, config)
    aligned = _align_peers(peers, config.threshold, target.name)

    matrix: dict[date, dict[date, float]] = {}
    skipped: list[dict] = []
    flags: list[dict] = []
    details: list[dict] = []
    steps = [timedelta(days=h) for h in range(1, config.horizon + 1)]
    for origin in origins:
        try:
            panel = _assemble_panel(
                target.name, y[:(origin - start_date).days + 1], start_date,
                aligned, config.horizon, config.window,
            )
            lasso, fit, y_hat = fit_origin(panel)
            levels = forecast_levels(fit, y_hat)
        except LatecastError as exc:
            skipped.append({"origin": origin.isoformat(), "reason": str(exc)})
            continue
        matrix[origin] = {origin + d: v for d, v in zip(steps, levels.tolist())}
        flags.extend(_calendar_flags(panel, fit, origin))
        details.append({
            "origin": origin.isoformat(),
            "selected": list(fit.peer_names),
            "fallback": bool(fit.fallback),
            "gamma": float(fit.gamma),
            "alpha": float(fit.alpha),
            "knots": lasso.knots,
        })

    if not matrix:
        raise DataFormatError(
            "every origin failed to fit; see the skip reasons: "
            + "; ".join(s["reason"] for s in skipped[:3])
        )

    observed: dict[date, int] = {}
    for column in matrix.values():
        for target_date in column:
            if target_date <= target.end:
                i = (target_date - target.start).days
                observed[target_date] = int(target.counts[i])

    mape_total, mape_worst, by_h = score(matrix, observed)
    by_horizon = np.full(config.horizon, np.nan)
    n = min(config.horizon, len(by_h))
    by_horizon[:n] = by_h[:n]

    return BacktestReport(
        origins=sorted(matrix),
        matrix=matrix,
        observed=observed,
        mape_total=mape_total,
        mape_worst=mape_worst,
        mape_by_horizon=by_horizon,
        window=config.window,
        horizon=config.horizon,
        skipped=skipped,
        flags=flags,
        origin_details=details,
    )


def report_to_csv(report: BacktestReport) -> str:
    """Forecast matrix as CSV: target dates down, origins across.

    First columns are Date and Observed; forecast levels are rounded to
    whole counts for display.
    """
    target_dates = sorted({d for col in report.matrix.values() for d in col})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["Date", "Observed"]
                    + [o.isoformat() for o in report.origins])
    for d in target_dates:
        row = [d.isoformat()]
        obs = report.observed.get(d)
        row.append("" if obs is None else str(obs))
        for o in report.origins:
            f = report.matrix[o].get(d)
            row.append("" if f is None else str(round(f)))
        writer.writerow(row)
    return buf.getvalue()


def report_to_json(report: BacktestReport) -> dict:
    """All aggregates and the full-precision matrix, JSON-ready."""
    return {
        "origins": [o.isoformat() for o in report.origins],
        "matrix": {
            o.isoformat(): {
                d.isoformat(): float(v) for d, v in sorted(col.items())
            }
            for o, col in sorted(report.matrix.items())
        },
        "observed": {
            d.isoformat(): int(v) for d, v in sorted(report.observed.items())
        },
        "mape_total": report.mape_total,
        "mape_worst": report.mape_worst,
        "mape_by_horizon": [
            None if np.isnan(v) else float(v) for v in report.mape_by_horizon
        ],
        "window": report.window,
        "horizon": report.horizon,
        "skipped": report.skipped,
        "calendar_flags": report.flags,
        "origin_details": report.origin_details,
    }


def dumps_report(report: BacktestReport) -> str:
    return json.dumps(report_to_json(report), sort_keys=True, indent=2) + "\n"
