"""Ingestion and epidemic-age alignment.

Raw inputs are cumulative count series per country on calendar dates.
Everything downstream works on the "epidemic age" scale: day 1 is the
first date on which the cumulative count reached a threshold (100 cases
by default), so countries hit earlier act as leading covariates for a
latecomer at the same epidemic age.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta

import numpy as np

from .errors import DataFormatError, NotLatecomerError

logger = logging.getLogger(__name__)

DEFAULT_CASE_THRESHOLD = 100
DEFAULT_DEATH_THRESHOLD = 10

JHU_FIXED_COLUMNS = ("Province/State", "Country/Region", "Lat", "Long")


@dataclass(frozen=True, eq=False)
class CountrySeries:
    """Cumulative counts for one country on consecutive days from ``start``.

    ``counts`` is stored as a read-only int64 array; ``counts[i]`` is the
    count on ``date_at(i)``.
    """

    name: str
    start: date
    counts: np.ndarray

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        if not counts.size:
            raise DataFormatError(f"empty series for {self.name!r}")
        negative = np.flatnonzero(counts < 0)
        if negative.size:
            i = negative[0]
            raise DataFormatError(
                f"{self.name!r}: negative count {counts[i]} on "
                f"{self.date_at(i).isoformat()}"
            )
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def end(self) -> date:
        return self.date_at(len(self.counts) - 1)

    def date_at(self, i: int) -> date:
        """Calendar date of ``counts[i]``."""
        return self.start + timedelta(days=int(i))


@dataclass
class AlignedPanel:
    """Regression panel on the epidemic-age scale.

    ``y`` holds the log cumulative counts of the target for ages
    1..tau_len.  ``X`` holds the peers' log counts at the same ages and
    extends ``horizon`` days beyond the target (the peers are "ahead",
    so those values are observed, not forecast).  ``weights`` are the
    emphasis multiplicities for the newest observations; estimation uses
    the trailing ``window`` rows.
    """

    target_name: str
    peer_names: list[str]
    tau_len: int
    y: np.ndarray
    X: np.ndarray
    weights: np.ndarray
    threshold: int
    window: int
    horizon: int
    start_date: date
    end_date: date
    peer_start_dates: dict[str, date]
    drop_log: list[dict] = field(default_factory=list)

    @property
    def window_slice(self) -> slice:
        return slice(self.tau_len - self.window, self.tau_len)

    @property
    def window_y(self) -> np.ndarray:
        return self.y[self.window_slice]

    @property
    def window_X(self) -> np.ndarray:
        return self.X[self.window_slice]

    @property
    def window_weights(self) -> np.ndarray:
        return self.weights[self.window_slice]

    def date_at(self, tau: int) -> date:
        """Calendar date of the target at epidemic age ``tau`` (1-based)."""
        return self.start_date + timedelta(days=tau - 1)

    def peer_date_at(self, peer: str, tau: int) -> date:
        """Calendar date at which ``peer`` was at epidemic age ``tau``."""
        return self.peer_start_dates[peer] + timedelta(days=tau - 1)


def _require_consecutive(dates, where: str) -> None:
    for prev, cur in zip(dates, dates[1:]):
        if (cur - prev).days != 1:
            raise DataFormatError(
                f"{where}: dates must be consecutive days, "
                f"found gap {prev.isoformat()} -> {cur.isoformat()}"
            )


def _parse_count(cell: str, row: int, col: str) -> int:
    cell = cell.strip()
    try:
        v = float(cell)
    except ValueError:
        raise DataFormatError(
            f"non-numeric count {cell!r} at row {row}, column {col!r}"
        ) from None
    if not v.is_integer():
        raise DataFormatError(
            f"non-integer count {cell!r} at row {row}, column {col!r}"
        )
    return int(v)


def parse_jhu_wide(csv_text: str) -> list[CountrySeries]:
    """Parse the JHU wide CSV layout into one series per country.

    The header is ``Province/State,Country/Region,Lat,Long`` followed by
    M/D/YY date columns; province rows are summed per country.
    """
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError("empty file") from None
    header = [h.strip() for h in header]
    for col in JHU_FIXED_COLUMNS:
        if col not in header:
            raise DataFormatError(f"malformed header: missing column {col!r}")
    country_idx = header.index("Country/Region")
    n_fixed = len(JHU_FIXED_COLUMNS)
    date_labels = header[n_fixed:]
    if not date_labels:
        raise DataFormatError("malformed header: no date columns after 'Long'")
    try:
        dates = tuple(
            datetime.strptime(lbl.strip(), "%m/%d/%y").date() for lbl in date_labels
        )
    except ValueError as exc:
        raise DataFormatError(f"malformed date column header: {exc}") from None
    _require_consecutive(dates, "date column header")

    totals: dict[str, np.ndarray] = {}
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise DataFormatError(
                f"row {row_no}: expected {len(header)} cells, found {len(row)}"
            )
        country = row[country_idx].strip()
        values = np.array(
            [
                _parse_count(cell, row_no, date_labels[j])
                for j, cell in enumerate(row[n_fixed:])
            ],
            dtype=np.int64,
        )
        if country not in totals:
            totals[country] = values
        else:
            totals[country] = totals[country] + values

    out = [CountrySeries(c, dates[0], counts) for c, counts in totals.items()]
    _warn_on_revisions(out)
    return out


def parse_long(csv_text: str) -> list[CountrySeries]:
    """Parse long-format CSV with columns ``country,date,cumulative``."""
    reader = csv.DictReader(io.StringIO(csv_text))
    required = {"country", "date", "cumulative"}
    if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
        missing = sorted(required - set(reader.fieldnames or []))
        raise DataFormatError(f"malformed header: missing column(s) {missing}")

    rows: dict[str, dict[date, int]] = {}
    for row_no, rec in enumerate(reader, start=2):
        country = (rec["country"] or "").strip()
        if not country:
            raise DataFormatError(f"row {row_no}: empty country")
        try:
            d = date.fromisoformat((rec["date"] or "").strip())
        except ValueError:
            raise DataFormatError(
                f"row {row_no}: bad ISO date {rec['date']!r}"
            ) from None
        c = _parse_count(rec["cumulative"] or "", row_no, "cumulative")
        bucket = rows.setdefault(country, {})
        if d in bucket:
            raise DataFormatError(
                f"duplicate row for ({country!r}, {d.isoformat()})"
            )
        bucket[d] = c

    out = []
    for country, by_date in rows.items():
        dates = sorted(by_date)
        _require_consecutive(dates, repr(country))
        out.append(CountrySeries(country, dates[0], [by_date[d] for d in dates]))
    _warn_on_revisions(out)
    return out


def ingestion_warnings(series_list: list[CountrySeries]) -> list[dict]:
    """Non-fatal data oddities: downward revisions in cumulative counts."""
    warns = []
    for s in series_list:
        c = s.counts
        for i in np.flatnonzero(c[1:] < c[:-1]) + 1:
            warns.append(
                {
                    "country": s.name,
                    "date": s.date_at(i).isoformat(),
                    "kind": "downward_revision",
                    "from": int(c[i - 1]),
                    "to": int(c[i]),
                }
            )
    return warns


def _warn_on_revisions(series_list: list[CountrySeries]) -> None:
    for w in ingestion_warnings(series_list):
        logger.warning(
            "%s: cumulative count fell %d -> %d on %s",
            w["country"], w["from"], w["to"], w["date"],
        )


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
    max_horizon: int = 14,
    window: int = 21,
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
    aligned = _align_peers(peers, threshold, target.name)
    return _assemble_panel(target, aligned, threshold, max_horizon, window)


def _align_peers(peers: list[CountrySeries], threshold: int,
                 target_name: str) -> list[tuple]:
    """Each peer on the epidemic-age scale, as ``(name, log counts, start)``.

    The peer named like the target is not aligned, and a peer that never
    reaches ``threshold`` has ``None`` log counts.  A peer whose data
    cannot be aligned keeps its ``DataFormatError`` in place of the log
    counts, raised by the first panel that would use it.
    """
    aligned = []
    for peer in peers:
        ptau = pstart = None
        if peer.name != target_name:
            try:
                ptau, pstart = to_tau(peer, threshold)
            except NotLatecomerError:
                pass
            except DataFormatError as exc:
                ptau = exc
        aligned.append((peer.name, ptau, pstart))
    return aligned


def _assemble_panel(target: CountrySeries, aligned: list[tuple],
                    threshold: int, max_horizon: int,
                    window: int) -> AlignedPanel:
    """Align ``target`` and build its panel from peers already aligned by
    ``_align_peers``, so a backtest aligns each peer once for all origins."""
    y, start_date = to_tau(target, threshold)
    tau_len = len(y)
    required = tau_len + max_horizon

    drop_log: list[dict] = []
    kept: list[tuple[str, np.ndarray, date]] = []
    for name, ptau, pstart in aligned:
        if name == target.name:
            reason, n = "is_target", 0
        elif isinstance(ptau, DataFormatError):
            raise ptau.with_traceback(None)
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

    for entry in drop_log:
        logger.info("dropped peer %(peer)s: %(reason)s", entry)
    if not kept:
        raise DataFormatError(
            f"no peer has {required} aligned observations for target "
            f"{target.name!r} (tau_len={tau_len}, horizon={max_horizon})"
        )
    kept.sort(key=lambda item: item[0])

    eff_window = window
    if tau_len < window:
        logger.warning(
            "target %r has only %d aligned observations; shrinking window from %d",
            target.name, tau_len, window,
        )
        eff_window = tau_len

    X = np.column_stack([col for _, col, _ in kept])
    weights = np.ones(tau_len)
    weights[tau_len - eff_window:] = inflation_weights(eff_window)

    return AlignedPanel(
        target_name=target.name,
        peer_names=[name for name, _, _ in kept],
        tau_len=tau_len,
        y=y,
        X=X,
        weights=weights,
        threshold=threshold,
        window=eff_window,
        horizon=max_horizon,
        start_date=start_date,
        end_date=target.end,
        peer_start_dates={name: pstart for name, _, pstart in kept},
        drop_log=drop_log,
    )


def default_threshold(metric: str) -> int:
    if metric == "cases":
        return DEFAULT_CASE_THRESHOLD
    if metric == "deaths":
        return DEFAULT_DEATH_THRESHOLD
    raise ValueError(f"unknown metric {metric!r}")


def threshold_crossing(counts, threshold: int) -> int | None:
    """Index of the first count at or above threshold, or None."""
    hits = np.flatnonzero(np.asarray(counts) >= threshold)
    return int(hits[0]) if hits.size else None
