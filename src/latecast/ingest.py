"""Ingestion: cumulative count series per country, read from CSV text.

Two layouts are read: the JHU wide layout (``parse_jhu_wide``), one row
per country or province with one column per date, and the long layout
(``parse_long``), one ``country,date,cumulative`` row per country and
day.  RFC 4180 text whose rows are one line each, with no CR or NUL, is
read from its UTF-8 bytes one slab at a time; any other text, a quoted
line break included, is read row by row through ``csv``.  Both readers
give the same series and name the same first fault.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from datetime import date, datetime, timedelta

import numpy as np

from .errors import DataFormatError

JHU_FIXED_COLUMNS = ("Province/State", "Country/Region", "Lat", "Long")

# Counts are parsed through float, which is exact for integers below
# this bound only.
_MAX_EXACT_COUNT = 2**53

# least number of characters in one of the pieces that _chunks cuts,
# which _lines reads through one io.StringIO (4 bytes per character) and
# the byte readers encode into one slab, so that none of them copies the
# whole text; at this size a StringIO holds a megabyte, and each of a
# slab's per-cell int64 arrays (starts, ends, words, masks) under half a
# megabyte on the large panels that perfbench generates
_CHUNK_CHARS = 1 << 18

# newlines on each side of a slab, so that a window of up to 15 bytes
# before or after any of its cells stays inside it
_PAD = 16

# the bytes that may stand next to a quote of a quoted cell: the comma
# or newline around the cell, or the other quote of a doubled quote
_QUOTE_NEIGHBOURS = np.zeros(256, dtype=bool)
_QUOTE_NEIGHBOURS[[ord(","), ord("\n"), ord('"')]] = True

# _BYTE_MASKS[n] keeps the first n bytes of a little-endian uint64
_BYTE_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)

# a uint64 of eight ASCII '0's, and the masks of the test for digits
_ZEROS = np.uint64(0x3030303030303030)
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_SIXES = np.uint64(0x0606060606060606)

# the bytes of a YYYY-MM-DD cell that hold its dashes, in the word of its
# first 8 bytes, and those dashes
_DASH_BYTES = np.uint64(0xFF0000FF00000000)
_DASHES = np.uint64(0x2D00002D00000000)

# for each year 0 to 9999 of the proleptic Gregorian calendar, whether
# it is a leap year, and the days from January 1 of year 1, which
# date.toordinal numbers 1, to its January 1 (year 0 is no date's year)
_LEAP = np.zeros(10_000, dtype=bool)
_LEAP[::4] = True
_LEAP[::100] = False
_LEAP[::400] = True
_YEAR_DAYS = np.concatenate(([0, 0], np.cumsum(365 + _LEAP[1:-1])))
# for each number m up to 99, the length of month m in a year that is not
# a leap year, 0 for a number that is no month, and the days before it
_MONTH_DAYS = np.zeros(100, dtype=np.int64)
_MONTH_DAYS[1:13] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
_MONTH_START = np.cumsum(_MONTH_DAYS) - _MONTH_DAYS


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
        if counts.min() < 0:
            i = np.flatnonzero(counts < 0)[0]
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


def _require_consecutive(days: np.ndarray, where: str) -> None:
    """Raise at the first step between day ordinals that is not one day."""
    steps = np.flatnonzero(np.diff(days) != 1)
    if steps.size:
        prev, cur = (date.fromordinal(int(d)) for d in days[steps[0]:steps[0] + 2])
        raise DataFormatError(
            f"{where}: dates must be consecutive days, "
            f"found gap {prev.isoformat()} -> {cur.isoformat()}"
        )


def _chunks(text: str, start: int):
    """``text[start:]`` in chunks of at least ``_CHUNK_CHARS`` characters,
    each cut after the first newline past them (the last may be shorter);
    callers map their copy over the pieces, so that none outlives it."""
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def _lines(text: str, start: int = 0):
    """The lines of ``io.StringIO(text[start:])``, read through one
    ``StringIO`` at a time over ``_chunks``."""
    for lines in map(io.StringIO, _chunks(text, start)):
        yield from lines


def _csv_reader(csv_text: str):
    """CSV rows of ``csv_text``, ignoring one leading byte-order mark."""
    # start past the mark rather than strip it, which copies the text
    return csv.reader(_lines(csv_text, int(csv_text.startswith("\ufeff"))))


def _blank(row: list[str]) -> bool:
    """True for a row whose cells are all empty or whitespace."""
    return not any(map(str.strip, row))


def _csv_rows(csv_text: str, read_header, names: dict[str, int]):
    """The rows of the text as ``csv`` reads them, for the row loops:
    first ``(header, columns)``, the stripped cells of the first row
    that is not all blank and what ``read_header`` returned for them,
    then ``(row_no, row, id)`` for each later row that is not all blank,
    ``id`` being the index in ``names`` of its country.  It raises
    ``DataFormatError`` for text with no header and, naming the row, for
    a row of another width or with a blank country cell or a ``csv.Error``."""
    rows = enumerate(_csv_reader(csv_text), 1)
    row_no = 0
    try:
        for row_no, row in rows:
            if not _blank(row):
                header = [h.strip() for h in row]
                break
        else:
            raise DataFormatError("empty file")
        yield header, (columns := read_header(header))
        width, country_idx = columns[:2]
        for row_no, row in rows:
            if len(row) == width and (country := row[country_idx].strip()):
                index = names.setdefault(country, len(names))
            elif _blank(row):
                continue
            elif len(row) != width:
                raise DataFormatError(
                    f"row {row_no}: expected {width} cells, found {len(row)}")
            else:
                raise DataFormatError(f"row {row_no}: empty country")
            yield row_no, row, index
    except csv.Error as exc:
        raise DataFormatError(f"row {row_no + 1}: {exc}") from None


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


def _days(cells: list[str], memo: dict[str, int]) -> np.ndarray:
    """Date cells as day ordinals, read as ``date.fromisoformat`` reads
    each stripped cell; raises ``ValueError`` if it rejects any cell.

    ``memo`` maps each cell already read to its ordinal and gains the
    cells read here, so a cell shared by many countries is read once."""
    for c in cells:
        if c not in memo:
            memo[c] = date.fromisoformat(c.strip()).toordinal()
    return np.fromiter(map(memo.__getitem__, cells), np.int64, len(cells))


def _header_dates(labels: list[str]) -> list[date]:
    """The dates of M/D/YY header labels, as ``datetime.strptime`` reads
    each; raises its ``ValueError`` at the first label it rejects.

    A label of ASCII digits of widths 1-2, 1-2 and 2 that names a real
    day is read by integer arithmetic, with ``%y``'s pivot: 69-99 are
    19xx and 00-68 are 20xx.  Any other label goes to ``strptime``, so
    the error is its own."""
    def read(label: str) -> date:
        m, _, rest = label.partition("/")
        d, _, y = rest.partition("/")
        digits = m + d + y
        if (0 < len(m) <= 2 and 0 < len(d) <= 2 and len(y) == 2
                and digits.isascii() and digits.isdigit()):
            year = int(y)
            try:
                return date(year + (1900 if year >= 69 else 2000), int(m), int(d))
            except ValueError:
                pass
        return datetime.strptime(label, "%m/%d/%y").date()

    return [read(lbl) for lbl in labels]


def parse_jhu_wide(csv_text: str) -> list[CountrySeries]:
    """Parse the JHU wide CSV layout into one series per country.

    The header is ``Province/State,Country/Region,Lat,Long`` followed by
    M/D/YY date columns; province rows are summed per country.  In both
    layouts a leading byte-order mark and all-blank rows are ignored.

    Text is read as ``parse_long`` reads it: from its UTF-8 bytes if it
    is RFC 4180 text whose rows are one line each, with no CR or NUL,
    and otherwise, or if it has a header or row fault, row by row by
    ``_csv_rows``, naming its first fault.
    """
    names, (_, _, start), ids, counts = (_read_wide_bytes(csv_text)
                                         or _read_wide_rows(csv_text))
    totals = np.zeros((len(names), counts.shape[1]), dtype=np.int64)
    for i, row in zip(ids.tolist(), counts):
        totals[i] += row
    del ids, counts
    out = [CountrySeries(name, start, c) for name, c in zip(names, totals)]
    _warn_on_revisions(out)
    return out


def _wide_columns(header: list[str]) -> tuple[int, int, date]:
    """The width of a JHU wide-layout header, the index of its
    ``Country/Region`` column and the date of its first date column."""
    for col in JHU_FIXED_COLUMNS:
        if col not in header:
            raise DataFormatError(f"malformed header: missing column {col!r}")
    date_labels = header[len(JHU_FIXED_COLUMNS):]
    if not date_labels:
        raise DataFormatError("malformed header: no date columns after 'Long'")
    try:
        dates = _header_dates(date_labels)
    except ValueError as exc:
        raise DataFormatError(f"malformed date column header: {exc}") from None
    _require_consecutive(np.array([d.toordinal() for d in dates]),
                         "date column header")
    return len(header), header.index("Country/Region"), dates[0]


def _read_wide_rows(csv_text: str):
    """Country names in file order, the header's ``_wide_columns``, and
    each row's country index and counts, read row by row by ``_csv_rows``;
    the first row fault in file order is raised as it is read."""
    names: dict[str, int] = {}
    rows = _csv_rows(csv_text, _wide_columns, names)
    header, columns = next(rows)
    date_labels = header[len(JHU_FIXED_COLUMNS):]
    ids, values = [], []
    for row_no, row, index in rows:
        cells = row[len(JHU_FIXED_COLUMNS):]
        try:
            values.append(_counts(cells))
        except ValueError:
            for label, cell in zip(date_labels, cells):
                _parse_count(cell, row_no, label)
            raise
        ids.append(index)
    return (list(names), columns, np.array(ids, dtype=np.int64),
            np.array(values, dtype=np.int64).reshape(len(ids), len(date_labels)))


def _read_wide_bytes(csv_text: str):
    """What ``_read_wide_rows`` returns, read by ``_read_bytes``, or None
    for text that it declines or with a count cell that ``_counts``
    rejects."""
    def decode(slab, starts, ends, fields, columns):
        cells = fields[:, None] + np.arange(len(JHU_FIXED_COLUMNS), columns[0])
        return (_count_cells(slab, starts[cells], ends[cells]),)

    return _read_bytes(csv_text, _wide_columns, decode)


def _long_columns(header: list[str]) -> tuple[int, int, int, int]:
    """The width of a long-layout header and the indices of its
    ``country``, ``date`` and ``cumulative`` columns."""
    required = {"country", "date", "cumulative"}
    if not required.issubset(header):
        missing = sorted(required - set(header))
        raise DataFormatError(f"malformed header: missing column(s) {missing}")
    return (len(header), header.index("country"), header.index("date"),
            header.index("cumulative"))


def parse_long(csv_text: str) -> list[CountrySeries]:
    """Parse long-format CSV with columns ``country,date,cumulative``.

    The columns may come in any order, and other columns are ignored;
    header cells are stripped, as in the wide layout, and every row that
    is not all blank must have as many cells as the header.  Date cells
    are read as ``datetime.date.fromisoformat`` reads them: cells of
    YYYY-MM-DD shape are decoded by arithmetic (``_date_cells``), and
    only other cells reach ``fromisoformat``.

    RFC 4180 text whose rows are one line each, with no CR or NUL, is
    read from its UTF-8 bytes, one slab at a time; other text, a quoted
    line break included, and text with a header or row fault, is read
    row by row by ``_csv_rows``, naming its first fault.

    A file with several faults is named by its first, in file order.
    Row faults (a wrong cell count, an empty country, a bad date or
    count cell, a repeated country and date) come first; a gap in a
    country's dates or a negative count is raised only for a file with
    no row fault, for the first country in the file that has one, and
    for a country with both, the gap is named.  Both are found in one
    pass over the rows in country and date order; they are sorted into
    it only if they are not in it already, as country-major text is.
    Only the faulty country's own checks run, to name its fault.
    """
    names, _, ids, days, counts = (_read_long_bytes(csv_text)
                                   or _read_long_rows(csv_text))
    if (ids[1:] < ids[:-1]).any() or (
            (ids[1:] == ids[:-1]) & (days[1:] < days[:-1])).any():
        first_day = days.min()
        key = ids * (days.max() - first_day + 1)
        key += days
        key -= first_day
        order = np.argsort(key, kind="stable")
        del key
        # one column at a time, so that each unsorted column is freed
        # before the next is gathered
        ids = ids[order]
        days = days[order]
        counts = counts[order]
        del order
    same_country, day_steps = ids[1:] == ids[:-1], np.diff(days)
    # a zero step between one country's sorted days is a repeated date,
    # which only the byte reader lets through; the row loop names it
    if (same_country & (day_steps == 0)).any():
        _read_long_rows(csv_text)
        raise RuntimeError("internal error: the row loop found no repeated date")
    bounds = [0, *(np.flatnonzero(~same_country) + 1).tolist(), len(ids)]
    # the rows with a negative count or a gap before them in their country
    faulty = counts < 0
    faulty[1:] |= same_country & (day_steps != 1)
    if faulty.any():
        # the first country in the file with a fault names a gap here
        # and a negative count when its series is built below
        i = ids[faulty.argmax()]
        _require_consecutive(days[bounds[i]:bounds[i + 1]], repr(names[i]))
    starts = [date.fromordinal(int(days[lo])) for _, lo in zip(names, bounds)]
    # each series copies its counts: only the counts column stays beside
    # the copies, and none of the columns beside the revision scan
    del ids, days, day_steps, same_country, faulty
    out = [CountrySeries(name, start, counts[lo:hi])
           for name, start, lo, hi in zip(names, starts, bounds, bounds[1:])]
    del counts
    _warn_on_revisions(out)
    return out


def _read_long_rows(csv_text: str):
    """Country names in file order, the header's ``_long_columns`` and
    each row's country index, day ordinal and count, read row by row by
    ``_csv_rows``; the first row fault in file order is raised as read."""
    names: dict[str, int] = {}
    rows = _csv_rows(csv_text, _long_columns, names)
    _, columns = next(rows)
    date_idx, count_idx = columns[2:]
    # the day ordinals read so far for each country index
    seen: dict[int, set[int]] = {}
    ids, days, counts = [], [], []
    for row_no, row, index in rows:
        cell = row[date_idx]
        try:
            day = date.fromisoformat(cell.strip()).toordinal()
        except ValueError:
            raise DataFormatError(f"row {row_no}: bad ISO date {cell!r}") from None
        counts.append(_parse_count(row[count_idx], row_no, "cumulative"))
        if not ids or ids[-1] != index:
            country_days = seen.setdefault(index, set())
        if day in country_days:
            raise DataFormatError(f"duplicate row for ({list(names)[index]!r}, "
                                  f"{date.fromordinal(day).isoformat()})")
        country_days.add(day)
        ids.append(index)
        days.append(day)
    return (list(names), columns, np.array(ids, dtype=np.int64),
            np.array(days, dtype=np.int64), np.array(counts, dtype=np.int64))


def _read_long_bytes(csv_text: str):
    """What ``_read_long_rows`` returns, read by ``_read_bytes``, or None
    for text that it declines or with a date or count cell that
    ``_days`` or ``_counts`` rejects; only a repeated country and date
    is let through, for ``parse_long`` to find."""
    ordinals: dict[str, int] = {}  # one date memo for the whole parse

    def decode(slab, starts, ends, fields, columns):
        d, k = fields + columns[2], fields + columns[3]
        return (_date_cells(slab, starts[d], ends[d], ordinals),
                _count_cells(slab, starts[k], ends[k]))

    return _read_bytes(csv_text, _long_columns, decode)


def _read_bytes(csv_text: str, read_header, decode):
    """``(names, columns, ids, *values)`` for the text, read by
    ``_byte_rows``, each slab's ``values`` being what ``decode(slab,
    starts, ends, fields, columns)`` returns; or None for text that it
    declines or with a cell that ``decode`` rejects.  Each column is an
    int64 buffer of its own, so that ``parse_long`` can release each on
    its own, allocated on the first slab for ``_max_rows`` rows."""
    names: dict[str, int] = {}
    out, n, size = [], 0, 0
    try:
        for slab, starts, ends, fields, ids, columns in _byte_rows(
                csv_text, read_header, names):
            # counted before the first decode; after it, large_panel's RSS peaked 1.8 MB higher
            size = size or _max_rows(csv_text)
            values = ids, *decode(slab, starts, ends, fields, columns)
            out = out or [np.empty((size, *v.shape[1:]), np.int64) for v in values]
            for column, v in zip(out, values):
                column[n:n + len(ids)] = v
            n += len(ids)
    except (ValueError, DataFormatError):
        return None
    return list(names), columns, *(column[:n] for column in out)


def _max_rows(csv_text: str) -> int:
    """A bound on the rows that ``_byte_rows`` yields for the text: its
    lines, each of which is one row at most.  Numpy counts the newlines
    on the UTF-8 bytes of one chunk of ``_CHUNK_CHARS`` characters at a
    time, not ``str.count``, which reads one character at a time.  The
    columns are sized only once ``_byte_rows`` has yielded its first
    slab, so that text it declines at once costs no count."""
    rows = 1
    for i in range(0, len(csv_text), _CHUNK_CHARS):
        chunk = np.frombuffer(_utf8(csv_text[i:i + _CHUNK_CHARS]), np.uint8)
        rows += int(np.count_nonzero(chunk == ord("\n")))
    return rows


def _byte_rows(csv_text: str, read_header, names: dict[str, int]):
    """The rows of the UTF-8 bytes of the text, one slab at a time, for
    the byte readers of both layouts.

    ``read_header`` reads the stripped cells of the first row that is
    not all blank, the header, into a tuple that starts with its width
    and the index of its country column.  From the slab that holds the
    header on, each slab yields ``(slab, starts, ends, fields, ids,
    columns)``: field i is ``slab[starts[i]:ends[i]]``, ``columns`` is
    what ``read_header`` returned, and the rows after the header that
    are not all blank have their first field at ``fields`` and the index
    in ``names`` of their country at ``ids``; a new country is added to
    ``names``.

    It reads RFC 4180 text whose rows are one line each, with no CR or
    NUL.  It raises ``ValueError`` for any other text, which ``csv`` may
    read into other rows or cells (a carriage return or NUL, a quote
    that does not enclose a whole cell of one line, or a cell of more
    bytes than ``csv.field_size_limit()``), and for text with no header
    row or with a row that ``_csv_rows`` rejects; ``read_header`` raises
    ``DataFormatError`` for a header it rejects.  The row loops read
    such text row by row by ``_csv_rows`` and name its first fault."""
    if "\r" in csv_text or "\0" in csv_text:
        raise ValueError("carriage return or NUL")
    limit = csv.field_size_limit()
    columns = None
    # the index in names of each raw country cell read, -1 for a blank one
    countries: dict[bytes, int] = {}
    for slab in _slabs(csv_text, int(csv_text.startswith("\ufeff"))):
        a = np.frombuffer(slab, np.uint8)
        ends = _separators(a)
        if ends is None:
            raise ValueError("a quote does not enclose a whole cell of one line")
        # row r is fields first[r] to last[r]
        starts = np.concatenate(([_PAD], ends[:-1] + 1))
        if (ends - starts).max() > limit:
            raise ValueError("a cell is past the field size limit")
        last = np.flatnonzero(a[ends] == ord("\n"))
        first = np.concatenate(([0], last[:-1] + 1))

        def cells(r):
            """The cells of row r."""
            fields = slice(first[r], last[r] + 1)
            return _cells(slab, starts[fields], ends[fields])

        row = 0
        while columns is None and row < len(first):
            header = cells(row)
            if not _blank(header):
                columns = read_header([h.strip() for h in header])
            row += 1
        if columns is None:
            continue
        width, country_idx = columns[:2]
        rows = np.arange(row, len(first))
        # a row of another width, or with a blank country cell, must be
        # all blank
        wrong_width = last[rows] - first[rows] + 1 != width
        if not all(_blank(cells(r)) for r in rows[wrong_width]):
            raise ValueError("a row of another width")
        rows = rows[~wrong_width]
        c = first[rows] + country_idx
        ids = _country_ids(slab, starts[c], ends[c], countries, names)
        if not all(_blank(cells(r)) for r in rows[ids < 0]):
            raise ValueError("a blank country cell")
        yield slab, starts, ends, first[rows[ids >= 0]], ids[ids >= 0], columns
    if columns is None:
        raise ValueError("no header row")


def _slabs(text: str, start: int):
    """The UTF-8 bytes of each of ``_chunks(text, start)``, ending in a
    newline and padded by ``_PAD`` newlines on both sides."""
    pad = b"\n" * _PAD
    for body in map(_utf8, _chunks(text, start)):
        yield b"".join((pad, body, b"" if body.endswith(b"\n") else b"\n", pad))


def _utf8(text: str) -> bytes:
    """The UTF-8 bytes of the text, a lone surrogate included."""
    return text.encode("utf-8", "surrogatepass")


def _separators(a: np.ndarray) -> np.ndarray | None:
    """Positions of the commas and newlines outside quotes in the slab
    ``a``, or None if one of its quotes does not enclose a whole cell of
    one line."""
    # the slice drops the newlines of the pads
    seps = np.flatnonzero((a == ord(",")) | (a == ord("\n")))[_PAD:-_PAD]
    quotes = np.flatnonzero(a == ord('"'))
    if not quotes.size:
        return seps
    # quotes alternate between opening and closing a cell: an opening
    # quote follows a separator and a closing quote precedes one, except
    # that a doubled quote inside a cell closes and at once reopens it
    if (quotes.size % 2 or not _QUOTE_NEIGHBOURS[a[quotes[::2] - 1]].all()
            or not _QUOTE_NEIGHBOURS[a[quotes[1::2] + 1]].all()):
        return None
    # the separators inside the i-th pair of quotes are
    # seps[opens[i]:closes[i]]; the indices of all pairs' separators are
    # these ranges laid end to end, numbered by a running sum
    opens, closes = np.searchsorted(seps, quotes).reshape(-1, 2).T
    inside = closes - opens
    quoted = np.repeat(closes - np.cumsum(inside), inside) + np.arange(inside.sum())
    if (a[seps[quoted]] == ord("\n")).any():
        return None
    return np.delete(seps, quoted)


def _cell(raw: bytes) -> str:
    """The text of a cell's bytes, unquoted if it is quoted."""
    cell = raw.decode("utf-8", "surrogatepass")
    return cell[1:-1].replace('""', '"') if cell.startswith('"') else cell


def _cells(slab: bytes, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The text of the cells at ``slab[start:end]``."""
    return [_cell(slab[s:e]) for s, e in zip(starts.tolist(), ends.tolist())]


def _country_ids(slab: bytes, starts: np.ndarray, ends: np.ndarray,
                 countries: dict[bytes, int], names: dict[str, int]) -> np.ndarray:
    """The index in ``names`` of each country cell, or -1 for a blank one.

    Only a cell that starts a run of equal cells is looked up in
    ``countries``, and only one not yet there is decoded and stripped;
    a new name is added to ``names``."""
    new = _new_cells(slab, starts, ends)
    raws = [slab[s:e] for s, e in zip(starts[new].tolist(), ends[new].tolist())]
    for raw in raws:
        if raw not in countries:
            name = _cell(raw).strip()
            countries[raw] = names.setdefault(name, len(names)) if name else -1
    return np.fromiter(map(countries.__getitem__, raws), np.int64,
                       len(raws))[np.cumsum(new) - 1]


def _new_cells(slab: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """True for each cell whose bytes differ from the cell before it,
    and for the first cell.

    Neighbouring cells are compared by size, by a head word of their
    first 8 bytes and by a tail word of their last 8 bytes (zero for a
    cell under 8 bytes, which its head holds whole); only a pair of
    equal cells by these and of more than 16 bytes compares the words
    between its head and tail, 8 bytes at a time."""
    # the 8 bytes from each position of the slab, as one integer
    words = np.ndarray((len(slab) - 7,), "<u8", slab, 0, (1,))
    sizes = ends - starts
    head = words[starts] & _BYTE_MASKS[np.minimum(sizes, 8)]
    tail = words[ends - 8]
    tail[sizes < 8] = 0
    new = np.ones(len(sizes), dtype=bool)
    new[1:] = ((sizes[1:] != sizes[:-1]) | (head[1:] != head[:-1])
               | (tail[1:] != tail[:-1]))
    # the equal pairs so far with a word left between head and tail
    k = 8
    pairs = np.flatnonzero(~new[1:] & (sizes[1:] > k + 8)) + 1
    while pairs.size:
        differ = words[starts[pairs] + k] != words[starts[pairs - 1] + k]
        new[pairs[differ]] = True
        k += 8
        pairs = pairs[~differ & (sizes[pairs] > k + 8)]
    return new


def _date_cells(slab: bytes, starts: np.ndarray, ends: np.ndarray,
                memo: dict[str, int]) -> np.ndarray:
    """Date cells as ``_days`` reads them.

    A cell of 10 bytes, YYYY-MM-DD with ASCII digits, that names a day
    of the calendar (year 1 or later) is read by arithmetic, never by
    ``date.fromisoformat``: its eight digits are gathered from the words
    of its bytes 0-7 and 8-15, one multiply-shift in ``_digit_pairs``
    reads them as the numbers YY, YY, MM and DD, and the day is checked
    against the length of its month and counted from tables.  Every
    other cell (padded, quoted, another ISO form, or no day of the
    calendar) goes to ``_days``, which reads it through ``memo`` or
    rejects it."""
    # bytes 0-15 of each cell, gathered at once, as two little-endian
    # words (the pad keeps them inside the slab)
    cells16 = np.ndarray((len(slab) - 15,), "V16", slab, 0, (1,))[starts]
    head, tail = cells16.view("<u8").reshape(-1, 2).T
    # the digits of YYYY-MM-DD laid end to end: YYYY from bytes 0-3 and MM
    # from bytes 5-6 of the head, DD from bytes 0-1 of the tail
    pairs = (head & np.uint64(0xFFFFFFFF)) | (tail << np.uint64(48))
    pairs |= (head >> np.uint64(8)) & np.uint64(0xFFFF << 32)
    iso = _digit_pairs(pairs)
    iso &= (ends - starts == 10) & ((head & _DASH_BYTES) == _DASHES)
    # rejected cells read as 0000-00-00, so that every lookup stays inside
    # its table; year 0 and day 0 are rejected below
    pairs[~iso] = 0
    lanes = pairs.view(np.int64)
    year = (lanes & 0xFF) * 100 + (lanes >> 16 & 0xFF)
    month, day = lanes >> 32 & 0xFF, lanes >> 48
    leap = _LEAP[year]
    # a number that is no month has length 0, which rejects every day
    iso &= (year >= 1) & (day >= 1) & (
        day <= _MONTH_DAYS[month] + (leap & (month == 2)))
    days = _YEAR_DAYS[year] + _MONTH_START[month] + (leap & (month > 2)) + day
    other = np.flatnonzero(~iso)
    days[other] = _days(_cells(slab, starts[other], ends[other]), memo)
    return days


def _count_cells(slab: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Count cells as ``_counts`` reads them.  A cell of 1 to 15 ASCII
    digits is read as an integer directly, from the 8 bytes that end it
    and, if it is longer than 8 bytes, the 8 before those."""
    # the 8 bytes from each position of the slab, as one integer
    words = np.ndarray((len(slab) - 7,), "<u8", slab, 0, (1,))
    sizes = ends - starts
    counts, plain = _eight_digits(words[ends - 8], np.maximum(8 - sizes, 0))
    plain &= (sizes >= 1) & (sizes <= 15)
    more = (sizes > 8) & (sizes <= 15)
    high, digits = _eight_digits(words[ends[more] - 16], 16 - sizes[more])
    counts[more] += high * 10**8
    plain[more] &= digits
    other = ~plain
    counts[other] = _counts(_cells(slab, starts[other], ends[other]))
    return counts


def _eight_digits(words: np.ndarray, skip: np.ndarray):
    """The number that each little-endian word spells in 8 ASCII digits,
    its first ``skip`` bytes read as '0', as int64, and whether all 8
    bytes are digits (Langdale & Lemire, "Parsing Gigabytes of JSON per
    Second", 2019).  ``words`` is overwritten."""
    # the skipped bytes become 0xFF, then '0'
    fill = _BYTE_MASKS[skip]
    words |= fill
    words ^= fill & ~_ZEROS
    digits = _digit_pairs(words)
    # add up neighbouring pairs of digits, then fours
    for shift, mask in ((16, 0x00FF00FF00FF00FF), (32, 0x0000FFFF0000FFFF)):
        words &= mask
        words *= 10 ** (shift // 8) << shift | 1
        words >>= shift
    return words.view(np.int64), digits


def _digit_pairs(words: np.ndarray) -> np.ndarray:
    """Whether each little-endian word is 8 ASCII digits.  ``words`` is
    overwritten: byte k of each word becomes ten times its digit k plus
    its digit k + 1, so that bytes 0, 2, 4 and 6 hold the numbers of its
    four pairs of digits."""
    # a byte is a digit if its high nibble is 3, also after adding 6
    high = words & _HIGH_NIBBLES
    digits = high == _ZEROS
    np.add(words, _SIXES, out=high)
    high &= _HIGH_NIBBLES
    digits &= high == _ZEROS
    words &= 0x0F0F0F0F0F0F0F0F
    words *= 10 << 8 | 1
    words >>= 8
    return digits


def ingestion_warnings(series_list: list[CountrySeries]) -> list[dict]:
    """Non-fatal data oddities: downward revisions in cumulative counts,
    by series in list order and by date within a series.

    The counts of all series are scanned in one pass, laid end to end."""
    if not series_list:
        return []
    c = np.concatenate([s.counts for s in series_list])
    # the index in c after each series' last count
    ends = np.cumsum([len(s.counts) for s in series_list])
    falls = c[1:] < c[:-1]
    # no step from one series' last count to the next series' first
    falls[ends[:-1] - 1] = False
    warns = []
    for j in (np.flatnonzero(falls) + 1).tolist():
        k = int(np.searchsorted(ends, j, side="right"))
        s = series_list[k]
        # the index in s.counts of c[j]
        i = j - int(ends[k]) + len(s.counts)
        warns.append(
            {
                "country": s.name,
                "date": s.date_at(i).isoformat(),
                "kind": "downward_revision",
                "from": int(s.counts[i - 1]),
                "to": int(s.counts[i]),
            }
        )
    return warns


def _warn_on_revisions(series_list: list[CountrySeries]) -> None:
    for w in ingestion_warnings(series_list):
        warnings.warn(
            f"{w['country']}: cumulative count fell {w['from']} -> {w['to']} "
            f"on {w['date']}", RuntimeWarning, stacklevel=3,
        )
