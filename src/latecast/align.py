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
import warnings
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta

import numpy as np

from .errors import DataFormatError, NotLatecomerError

DEFAULT_CASE_THRESHOLD = 100
DEFAULT_DEATH_THRESHOLD = 10
DEFAULT_WINDOW = 21
DEFAULT_HORIZON = 14

JHU_FIXED_COLUMNS = ("Province/State", "Country/Region", "Lat", "Long")

# Counts are parsed through float, which is exact for integers below
# this bound only.
_MAX_EXACT_COUNT = 2**53

# least number of long-layout rows converted together, so that a file
# whose countries alternate row by row still converts in bulk
_BLOCK_ROWS = 4096


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


def _require_consecutive(days: np.ndarray, where: str) -> None:
    """Raise at the first step between day ordinals that is not one day."""
    steps = np.flatnonzero(np.diff(days) != 1)
    if steps.size:
        prev, cur = (date.fromordinal(int(d)) for d in days[steps[0]:steps[0] + 2])
        raise DataFormatError(
            f"{where}: dates must be consecutive days, "
            f"found gap {prev.isoformat()} -> {cur.isoformat()}"
        )


def _csv_reader(csv_text: str):
    """CSV rows of ``csv_text``, ignoring one leading byte-order mark."""
    return csv.reader(io.StringIO(csv_text.removeprefix("\ufeff")))


def _blank(row: list[str]) -> bool:
    """True for a row whose cells are all empty or whitespace."""
    return not any(map(str.strip, row))


def _read_header(reader) -> tuple[list[str], int]:
    """Stripped cells of the first row that is not all blank, and the
    number of the row after it."""
    for row_no, row in enumerate(reader, start=1):
        if not _blank(row):
            return [h.strip() for h in row], row_no + 1
    raise DataFormatError("empty file")


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
    if abs(v) >= _MAX_EXACT_COUNT:
        raise DataFormatError(
            f"count {cell!r} at row {row}, column {col!r} is out of range "
            f"(2**53 or more)"
        )
    return int(v)


def _counts(cells: list[str]) -> np.ndarray:
    """Count cells as int64, read by the ``float`` that ``_parse_count``
    uses; raises ``ValueError`` if ``_parse_count`` rejects any cell."""
    v = np.fromiter(map(float, cells), float, len(cells))
    # the range test is False for nan and inf as well
    if not ((np.abs(v) < _MAX_EXACT_COUNT) & (np.trunc(v) == v)).all():
        raise ValueError("count cell rejected")
    return v.astype(np.int64)


def _days(cells: list[str]) -> np.ndarray:
    """Date cells as day ordinals, read as ``date.fromisoformat`` reads
    each stripped cell; raises ``ValueError`` if it rejects any cell."""
    return np.fromiter(
        (date.fromisoformat(c.strip()).toordinal() for c in cells),
        np.int64, len(cells),
    )


def parse_jhu_wide(csv_text: str) -> list[CountrySeries]:
    """Parse the JHU wide CSV layout into one series per country.

    The header is ``Province/State,Country/Region,Lat,Long`` followed by
    M/D/YY date columns; province rows are summed per country.  In both
    layouts a leading byte-order mark and all-blank rows are ignored.
    """
    reader = _csv_reader(csv_text)
    header, first_row = _read_header(reader)
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
    _require_consecutive(np.array([d.toordinal() for d in dates]),
                         "date column header")

    totals: dict[str, np.ndarray] = {}
    for row_no, row in enumerate(reader, start=first_row):
        if _blank(row):
            continue
        if len(row) != len(header):
            raise DataFormatError(
                f"row {row_no}: expected {len(header)} cells, found {len(row)}"
            )
        country = row[country_idx].strip()
        if not country:
            raise DataFormatError(f"row {row_no}: empty country")
        cells = row[n_fixed:]
        try:
            values = _counts(cells)
        except ValueError:
            for label, cell in zip(date_labels, cells):
                _parse_count(cell, row_no, label)
            raise
        if country not in totals:
            totals[country] = values
        else:
            totals[country] = totals[country] + values

    out = [CountrySeries(c, dates[0], counts) for c, counts in totals.items()]
    _warn_on_revisions(out)
    return out


def parse_long(csv_text: str) -> list[CountrySeries]:
    """Parse long-format CSV with columns ``country,date,cumulative``.

    The columns may come in any order, and other columns are ignored;
    header cells are stripped, as in the wide layout, and every row that
    is not all blank must have as many cells as the header.  Date cells
    are read as ``datetime.date.fromisoformat`` reads them.
    """
    reader = _csv_reader(csv_text)
    header, first_row = _read_header(reader)
    required = {"country", "date", "cumulative"}
    if not required.issubset(header):
        missing = sorted(required - set(header))
        raise DataFormatError(f"malformed header: missing column(s) {missing}")
    width = len(header)
    country_idx = header.index("country")
    date_idx = header.index("date")
    count_idx = header.index("cumulative")

    # Cells wait in a block of rows, converted once a row that starts a
    # segment finds the block at least _BLOCK_ROWS long, into a tuple of
    # (country id, day ordinal, count) arrays.  A segment is a run of rows
    # with the same country cell and no blank row between them, kept as
    # (offset in the block, country id, row number).
    countries: dict[str, int] = {}
    date_cells: list[str] = []
    count_cells: list[str] = []
    segments: list[tuple[int, int, int]] = []
    blocks: list[tuple[np.ndarray, ...]] = []

    def convert_block() -> None:
        if not date_cells:
            return
        try:
            days, counts = _days(date_cells), _counts(count_cells)
        except ValueError:
            # a duplicate among the converted rows comes before this block
            _merge_blocks(blocks, list(countries))
            _replay_block(date_cells, count_cells, segments, blocks,
                          list(countries))
            raise
        offsets, ids, _ = zip(*segments)
        lengths = np.diff(offsets, append=len(days))
        blocks.append((np.repeat(ids, lengths), days, counts))
        date_cells.clear()
        count_cells.clear()
        segments.clear()

    def fail(message: str) -> DataFormatError:
        # a fault in an earlier row is raised first
        convert_block()
        _merge_blocks(blocks, list(countries))
        return DataFormatError(message)

    key = None
    for row_no, row in enumerate(reader, start=first_row):
        if len(row) == width and row[country_idx] == key:
            date_cells.append(row[date_idx])
            count_cells.append(row[count_idx])
            continue
        key = None
        if len(date_cells) >= _BLOCK_ROWS:
            convert_block()
        if len(row) != width:
            if _blank(row):
                continue
            raise fail(f"row {row_no}: expected {width} cells, found {len(row)}")
        country = row[country_idx].strip()
        if not country:
            if _blank(row):
                continue
            raise fail(f"row {row_no}: empty country")
        key = row[country_idx]
        segments.append(
            (len(date_cells), countries.setdefault(country, len(countries)), row_no)
        )
        date_cells.append(row[date_idx])
        count_cells.append(row[count_idx])
    convert_block()

    out = []
    for country, days, counts in _merge_blocks(blocks, list(countries)):
        _require_consecutive(days, repr(country))
        out.append(CountrySeries(country, date.fromordinal(int(days[0])), counts))
    _warn_on_revisions(out)
    return out


def _duplicate(country: str, day: int) -> DataFormatError:
    return DataFormatError(
        f"duplicate row for ({country!r}, {date.fromordinal(day).isoformat()})"
    )


def _merge_blocks(blocks: list, names: list[str]) -> list[tuple]:
    """Each country's ``(name, day ordinals, counts)`` in day order, for
    the converted blocks of ``parse_long``.

    ``names`` lists the countries by id.  Raises at the duplicate
    (country, date) row that comes first in the file.
    """
    if not blocks:
        return []
    ids, days, counts = (np.concatenate(a) for a in zip(*blocks))
    # the blocks are in file order and lexsort is stable, so a repeated
    # day follows the row it repeats, and order ranks rows by file position
    order = np.lexsort((days, ids))
    ids = ids[order]
    days = days[order]
    counts = counts[order]
    repeats = np.flatnonzero((np.diff(ids) == 0) & (np.diff(days) == 0)) + 1
    if repeats.size:
        i = repeats[np.argmin(order[repeats])]
        raise _duplicate(names[ids[i]], int(days[i]))
    bounds = np.searchsorted(ids, np.arange(len(names) + 1))
    return [(name, days[a:b], counts[a:b])
            for name, a, b in zip(names, bounds[:-1], bounds[1:])]


def _replay_block(date_cells, count_cells, segments, blocks, names) -> None:
    """Check the pending block of ``parse_long`` cell by cell, in row
    order, and raise its first fault with its row number in the file."""
    seen: dict[int, set[int]] = {}
    for ids, days, _ in blocks:
        for i, day in zip(ids.tolist(), days.tolist()):
            seen.setdefault(i, set()).add(day)
    ends = [offset for offset, _, _ in segments[1:]] + [len(date_cells)]
    for (offset, country_id, first_row), end in zip(segments, ends):
        days = seen.setdefault(country_id, set())
        for i in range(offset, end):
            row_no = first_row + i - offset
            try:
                day = date.fromisoformat(date_cells[i].strip()).toordinal()
            except ValueError:
                raise DataFormatError(
                    f"row {row_no}: bad ISO date {date_cells[i]!r}"
                ) from None
            _parse_count(count_cells[i], row_no, "cumulative")
            if day in days:
                raise _duplicate(names[country_id], day)
            days.add(day)


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
        warnings.warn(
            f"{w['country']}: cumulative count fell {w['from']} -> {w['to']} "
            f"on {w['date']}", RuntimeWarning, stacklevel=3,
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
