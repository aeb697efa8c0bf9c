"""Rolling-origin evaluation of the two-step pipeline.

At each origin only the target is cut: the peers enter with their full
series, and a selected peer that supplies values dated after the origin
is listed in that origin's record under ``calendar_future_peers``.
``ecm.fit_origin`` refits both steps as ``forecast`` does, and
``ecm.forecast_log`` runs the recursion once for the level forecasts
one to H days out that are stored.
Cells with a realized observation are scored by absolute percentage
error; aggregates are the mean over all scored cells, the worst single
cell, and the mean per forecasting horizon.  The module returns a
``BacktestReport`` and writes nothing: ``latecast.cli`` renders it as a
CSV matrix or a JSON document.
"""

from __future__ import annotations

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
from .ecm import fit_origin, forecast_levels, forecast_log, origin_record
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
    one.  Origins whose fit failed are in ``skipped`` with the reason.
    Each fitted origin has one ``origin_details`` entry, its
    ``ecm.origin_record``: the panel's drop log, the selected peers, those
    of them read at values dated after the origin, and both steps'
    estimates.  Percentages are in percent units (6.8 means 6.8%).
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
    origin_details: list[dict] = field(default_factory=list)


def score(cells) -> tuple[float, float, np.ndarray]:
    """MAPE aggregates over ``(h, forecast, actual)`` cells.

    A cell whose actual is 0 or less is not scored.  Returns
    percentages; the by-horizon vector runs from h=1 to the largest
    scored horizon, NaN where a horizon has no scored cell.
    """
    per_horizon: dict[int, list[float]] = {}
    for h, forecast, actual in cells:
        if actual > 0:
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
    observed: dict[date, int] = {}
    cells: list[tuple[int, float, int]] = []
    skipped: list[dict] = []
    details: list[dict] = []
    horizons = range(1, config.horizon + 1)
    steps = [timedelta(days=h) for h in horizons]
    for origin in origins:
        try:
            panel = _assemble_panel(
                target.name, y[:(origin - start_date).days + 1], start_date,
                aligned, config.horizon, config.window,
            )
            lasso, fit = fit_origin(panel)
            y_hat = forecast_log(fit, panel, config.horizon)
            levels = forecast_levels(fit, y_hat)
        except LatecastError as exc:
            skipped.append({"origin": origin.isoformat(), "reason": str(exc)})
            continue
        dates = [origin + d for d in steps]
        forecasts = levels.tolist()
        matrix[origin] = dict(zip(dates, forecasts))
        # the realized counts of the days after the origin, as far as
        # the target has them
        i = (origin - target.start).days + 1
        actual = target.counts[i:i + config.horizon].tolist()
        observed.update(zip(dates, actual))
        cells.extend(zip(horizons, forecasts, actual))
        details.append(origin_record(panel, lasso, fit))

    if not matrix:
        raise DataFormatError(
            "every origin failed to fit; see the skip reasons: "
            + "; ".join(s["reason"] for s in skipped[:3])
        )

    mape_total, mape_worst, by_h = score(cells)
    by_horizon = np.full(config.horizon, np.nan)
    n = min(config.horizon, len(by_h))
    by_horizon[:n] = by_h[:n]

    return BacktestReport(
        origins=list(matrix),
        matrix=matrix,
        observed=observed,
        mape_total=mape_total,
        mape_worst=mape_worst,
        mape_by_horizon=by_horizon,
        window=config.window,
        horizon=config.horizon,
        skipped=skipped,
        origin_details=details,
    )

