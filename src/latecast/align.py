"""Epidemic-age alignment.

Raw inputs are cumulative count series per country on calendar dates,
as ``ingest`` reads them.  Everything downstream works on the "epidemic
age" scale: day 1 is the first date on which the cumulative count
reached a threshold (100 cases by default), so countries hit earlier act
as leading covariates for a latecomer at the same epidemic age.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np

from .errors import DataFormatError, NotLatecomerError
# parse_* re-exported: perfbench/tracer.py finds and wraps them as align.parse_*
from .ingest import CountrySeries, parse_jhu_wide, parse_long

DEFAULT_CASE_THRESHOLD = 100
DEFAULT_DEATH_THRESHOLD = 10
DEFAULT_WINDOW = 21
DEFAULT_HORIZON = 14


@dataclass
class AlignedPanel:
    """Regression panel on the epidemic-age scale.

    ``y`` holds the log cumulative counts of the target for ages
    1..tau_len.  ``X`` holds the peers' log counts at the same ages and
    extends ``horizon`` days beyond the target (the peers are "ahead",
    so those values are observed, not forecast).  Estimation uses the
    trailing ``window`` rows, where ``window`` is the length of
    ``window_weights``, the emphasis multiplicities of those rows.
    ``tau_len``, ``horizon`` and ``end_date`` are derived from ``y``,
    ``X`` and ``start_date``.
    """

    target_name: str
    peer_names: list[str]
    y: np.ndarray
    X: np.ndarray
    window_weights: np.ndarray
    start_date: date
    peer_start_dates: dict[str, date]
    drop_log: list[dict] = field(default_factory=list)

    @property
    def tau_len(self) -> int:
        return len(self.y)

    @property
    def horizon(self) -> int:
        return len(self.X) - len(self.y)

    @property
    def end_date(self) -> date:
        return self.date_at(self.tau_len)

    @property
    def window(self) -> int:
        return len(self.window_weights)

    @property
    def window_slice(self) -> slice:
        return slice(self.tau_len - self.window, self.tau_len)

    @property
    def window_y(self) -> np.ndarray:
        return self.y[self.window_slice]

    @property
    def window_X(self) -> np.ndarray:
        return self.X[self.window_slice]

    def date_at(self, tau: int) -> date:
        """Calendar date of the target at epidemic age ``tau`` (1-based)."""
        return self.start_date + timedelta(days=tau - 1)

    def peer_date_at(self, peer: str, tau: int) -> date:
        """Calendar date at which ``peer`` was at epidemic age ``tau``."""
        return self.peer_start_dates[peer] + timedelta(days=tau - 1)


def truncate_series(series: CountrySeries, last_date: date) -> CountrySeries:
    """Restrict a series to observations dated on or before ``last_date``."""
    n = (last_date - series.start).days + 1
    if n <= 0:
        raise DataFormatError(
            f"{series.name!r} has no data on or before {last_date.isoformat()}"
        )
    return CountrySeries(series.name, series.start, series.counts[:n])


def to_tau(series: CountrySeries, threshold: int) -> tuple[np.ndarray, date]:
    """Re-index a series to epidemic age and return log counts.

    Returns ``(tau_series, start_date)`` where ``tau_series[0]`` is the
    log count on the first date at or above ``threshold`` and subsequent
    entries follow daily.

    Raises
    ------
    NotLatecomerError
        If the cumulative count never reaches ``threshold``.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    start_idx = threshold_crossing(series.counts, threshold)
    if start_idx is None:
        raise NotLatecomerError(series.name, threshold, int(series.counts.max()))
    tail = series.counts[start_idx:]
    zeros = np.flatnonzero(tail <= 0)
    if zeros.size:
        bad = series.date_at(start_idx + zeros[0])
        raise DataFormatError(
            f"{series.name!r}: zero count on {bad.isoformat()} after the "
            f"threshold was reached (cumulative data cannot return to zero)"
        )
    return np.log(tail.astype(float)), series.date_at(start_idx)


def inflation_weights(window_len: int) -> np.ndarray:
    """Emphasis weights for a rolling window of the given length.

    The newest observation gets multiplicity 4, decaying linearly to 2
    over the three preceding days, with weight 1 elsewhere.  Applied as
    least-squares row weights, which is algebraically identical to
    duplicating the newest rows.  Windows shorter than 4 keep only the
    tail of the (2, 3, 4) ramp.
    """
    if window_len < 1:
        raise ValueError("window_len must be >= 1")
    tail = np.array([2.0, 3.0, 4.0])
    if window_len <= 3:
        return tail[3 - window_len:].copy()
    w = np.ones(window_len)
    w[-3:] = tail
    return w


def build_panel(
    target: CountrySeries,
    peers: list[CountrySeries],
    threshold: int = DEFAULT_CASE_THRESHOLD,
    max_horizon: int = DEFAULT_HORIZON,
    window: int = DEFAULT_WINDOW,
) -> AlignedPanel:
    """Align target and peers on epidemic age and assemble the panel.

    Peers must have at least ``tau_len + max_horizon`` aligned
    observations (they supply the "future" covariate values used in
    forecasting); shorter ones are dropped and recorded in the panel's
    drop log.  If the target has fewer than ``window`` aligned
    observations the estimation window shrinks to what is available,
    with a warning.
    """
    if max_horizon < 1:
        raise ValueError("max_horizon must be >= 1")
    if window < 2:
        raise ValueError("window must be >= 2")
    y, start_date = to_tau(target, threshold)
    aligned = _align_peers(peers, threshold, target.name)
    panel = _assemble_panel(target.name, y, start_date, aligned,
                            max_horizon, min(window, len(y)))
    if len(y) < window:
        warnings.warn(
            f"target {target.name!r} has only {len(y)} aligned observations; "
            f"shrinking window from {window}", RuntimeWarning, stacklevel=2,
        )
    return panel


def _align_peers(peers: list[CountrySeries], threshold: int,
                 target_name: str) -> list[tuple]:
    """Each peer on the epidemic-age scale, as ``(name, log counts, start)``.

    The peer named like the target is not aligned, and a peer that never
    reaches ``threshold`` has ``None`` log counts.  A peer whose data
    cannot be aligned raises its ``DataFormatError`` here.
    """
    aligned = []
    for peer in peers:
        ptau = pstart = None
        if peer.name != target_name:
            try:
                ptau, pstart = to_tau(peer, threshold)
            except NotLatecomerError:
                pass
        aligned.append((peer.name, ptau, pstart))
    return aligned


def _assemble_panel(target_name: str, y: np.ndarray, start_date: date,
                    aligned: list[tuple], max_horizon: int,
                    window: int) -> AlignedPanel:
    """Build the panel of a target already aligned by ``to_tau`` from
    peers already aligned by ``_align_peers``.

    ``y`` may be any prefix of the target's alignment, so a backtest
    aligns each series once and slices the target at every origin.
    ``window`` must not exceed ``len(y)``.
    """
    tau_len = len(y)
    required = tau_len + max_horizon

    drop_log: list[dict] = []
    kept: list[tuple[str, np.ndarray, date]] = []
    for name, ptau, pstart in aligned:
        if name == target_name:
            reason, n = "is_target", 0
        elif ptau is None:
            reason, n = "below_threshold", 0
        elif len(ptau) < required:
            reason, n = "too_short", len(ptau)
        else:
            kept.append((name, ptau[:required], pstart))
            continue
        drop_log.append(
            {"peer": name, "reason": reason, "len": n, "required": required}
        )

    if not kept:
        raise DataFormatError(
            f"no peer has {required} aligned observations for target "
            f"{target_name!r} (tau_len={tau_len}, horizon={max_horizon})"
        )
    kept.sort(key=lambda item: item[0])
    return AlignedPanel(
        target_name=target_name,
        peer_names=[name for name, _, _ in kept],
        y=y,
        X=np.column_stack([col for _, col, _ in kept]),
        window_weights=inflation_weights(window),
        start_date=start_date,
        peer_start_dates={name: pstart for name, _, pstart in kept},
        drop_log=drop_log,
    )


def threshold_crossing(counts, threshold: int) -> int | None:
    """Index of the first count at or above threshold, or None."""
    hits = np.flatnonzero(np.asarray(counts) >= threshold)
    return int(hits[0]) if hits.size else None
