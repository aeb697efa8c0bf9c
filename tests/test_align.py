"""Ingestion (``latecast.ingest``), epidemic-age alignment and panel
construction (``latecast.align``)."""

import calendar
import csv
import io
import math
import re
import subprocess
import sys
import warnings
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import FIXTURES, make_series, src_env, traced_peak
from latecast import ingest
from latecast.align import (
    build_panel,
    inflation_weights,
    threshold_crossing,
    to_tau,
    truncate_series,
)
from latecast.ingest import ingestion_warnings, parse_jhu_wide, parse_long
from latecast.errors import DataFormatError, NotLatecomerError
from perfbench.panelgen import generate_panel

JHU_HEADER = "Province/State,Country/Region,Lat,Long,1/22/20,1/23/20,1/24/20"


@pytest.mark.parametrize("dates", ["1/22/20,1/24/20", "1/22/20,1/22/20"],
                         ids=["gap", "repeat"])
def test_parse_jhu_requires_consecutive_date_columns(dates):
    text = f"Province/State,Country/Region,Lat,Long,{dates}\n,Uruguay,-32.5,-55.8,1,2"
    with pytest.raises(DataFormatError, match="consecutive"):
        parse_jhu_wide(text)


def test_series_rejects_negative_counts():
    with pytest.raises(DataFormatError, match="negative"):
        make_series("X", date(2020, 3, 1), [1, -2, 3])


def test_parse_jhu_sums_province_rows():
    text = "\n".join([
        JHU_HEADER,
        "New South Wales,Australia,-33.9,151.2,1,2,2",
        "Victoria,Australia,-37.8,145.0,3,4,5",
    ])
    series = parse_jhu_wide(text)
    assert len(series) == 1
    assert series[0].name == "Australia"
    np.testing.assert_array_equal(series[0].counts, [4, 6, 7])
    assert series[0].start == date(2020, 1, 22)


def test_parse_jhu_single_row_passthrough():
    text = "\n".join([JHU_HEADER, ",Uruguay,-32.5,-55.8,0,0,5"])
    series = parse_jhu_wide(text)
    np.testing.assert_array_equal(series[0].counts, [0, 0, 5])


def test_parse_jhu_missing_country_column():
    text = "Province/State,Region,Lat,Long,1/22/20\n,Uruguay,-32.5,-55.8,1"
    with pytest.raises(DataFormatError, match="Country/Region"):
        parse_jhu_wide(text)


def test_parse_jhu_header_ending_at_long_has_no_date_columns():
    with pytest.raises(DataFormatError, match="^malformed header: no date "
                       "columns after 'Long'$"):
        parse_jhu_wide("Province/State,Country/Region,Lat,Long\n,A,0,0\n")


def test_parse_long_header_without_date_column():
    with pytest.raises(DataFormatError, match=re.escape(
            "malformed header: missing column(s) ['date']")):
        parse_long("country,day,cumulative\nA,2020-01-01,1\n")


def test_parse_jhu_bad_cell_reports_location():
    text = "\n".join([JHU_HEADER, ",Uruguay,-32.5,-55.8,1,x,3"])
    with pytest.raises(DataFormatError) as exc:
        parse_jhu_wide(text)
    msg = str(exc.value)
    assert "1/23/20" in msg and "row" in msg


@pytest.mark.parametrize("cells", [["1e20"], ["5000000000000000000"] * 2],
                         ids=["1e20", "two_rows_5e18"])
def test_parse_jhu_rejects_counts_past_exact_floats(cells):
    # two 5e18 province rows used to wrap around int64 in the sum
    rows = [f"P{i},Uruguay,-32.5,-55.8,1,{c},3" for i, c in enumerate(cells)]
    with pytest.raises(DataFormatError,
                       match=r"row 2, column '1/23/20' is out of range"):
        parse_jhu_wide("\n".join([JHU_HEADER, *rows]))


def test_parse_long_rejects_counts_past_exact_floats():
    head = "country,date,cumulative\nA,2020-03-01,1\n"
    series = parse_long(head + "A,2020-03-02,9007199254740991")
    assert series[0].counts[-1] == 2**53 - 1
    with pytest.raises(DataFormatError,
                       match=r"row 3, column 'cumulative' is out of range"):
        parse_long(head + "A,2020-03-02,1e20")


def test_parse_long_rejects_extra_cells():
    text = "country,date,cumulative\nA,2020-01-01,5\nA,2020-01-02,5,7"
    with pytest.raises(DataFormatError,
                       match=r"^row 3: expected 3 cells, found 4$"):
        parse_long(text)


@pytest.mark.parametrize("rows,msg", [
    ("A", "row 2: expected 3 cells, found 1"),
    ("A,2020-01-01", "row 2: expected 3 cells, found 2"),
    # a blank line counts as a row, as in the wide layout
    ("A,2020-01-01,5\n\nA,2020-01-02", "row 4: expected 3 cells, found 2"),
    ("A,2020-01-01,5\n\nA,2020-01-0x,5", "row 4: bad ISO date '2020-01-0x'"),
], ids=["one_cell", "two_cells", "after_blank_line", "bad_date_after_blank_line"])
def test_parse_long_reports_short_rows_by_line(rows, msg):
    with pytest.raises(DataFormatError, match=f"^{re.escape(msg)}$"):
        parse_long(f"country,date,cumulative\n{rows}\n")


def test_parse_long_columns_in_any_order():
    text = "date,note,cumulative,country\n2020-03-02,x,7,A\n2020-03-01,,5,A\n"
    [series] = parse_long(text)
    assert series.name == "A"
    assert series.start == date(2020, 3, 1)
    np.testing.assert_array_equal(series.counts, [5, 7])


def test_parse_long_strips_header_cells():
    # the wide parser strips its header cells too
    body = "A,2020-03-01,5\nA,2020-03-02,7\n"
    [plain] = parse_long("country,date,cumulative\n" + body)
    [spaced] = parse_long("country, date , cumulative\n" + body)
    assert (spaced.name, spaced.start) == (plain.name, plain.start)
    np.testing.assert_array_equal(spaced.counts, plain.counts)


@pytest.mark.parametrize("parse,text", [
    (parse_jhu_wide, f"{JHU_HEADER}\n,Uruguay,-32.5,-55.8,1,2,3\nP, ,0,0,1,2,3"),
    (parse_long, "country,date,cumulative\nA,2020-03-01,5\n ,2020-03-02,7"),
], ids=["wide", "long"])
def test_empty_country_is_rejected(parse, text):
    with pytest.raises(DataFormatError, match=r"^row 3: empty country$"):
        parse(text)


WIDE_TEXT = f"{JHU_HEADER}\n,Uruguay,-32.5,-55.8,1,2,3\n"
LONG_TEXT = "country,date,cumulative\nA,2020-03-01,5\nA,2020-03-02,7\n"


@pytest.mark.parametrize("parse,text", [
    (parse_jhu_wide, WIDE_TEXT), (parse_long, LONG_TEXT),
], ids=["wide", "long"])
def test_byte_order_mark_is_ignored(parse, text):
    # spreadsheet "CSV UTF-8" exports start with one U+FEFF
    [plain] = parse(text)
    [marked] = parse("\ufeff" + text)
    assert (marked.name, marked.start) == (plain.name, plain.start)
    np.testing.assert_array_equal(marked.counts, plain.counts)


@pytest.mark.parametrize("parse,text,blank", [
    (parse_jhu_wide, WIDE_TEXT, ",,,,,,"),
    (parse_jhu_wide, WIDE_TEXT, " , "),
    (parse_long, LONG_TEXT, ",,"),
    (parse_long, LONG_TEXT, " , "),
], ids=["wide", "wide_short", "long", "long_short"])
def test_all_blank_row_is_skipped(parse, text, blank):
    [plain] = parse(text)
    [padded] = parse(text + blank + "\n")
    assert (padded.name, padded.start) == (plain.name, plain.start)
    np.testing.assert_array_equal(padded.counts, plain.counts)


@pytest.mark.parametrize("text", ["", "\ufeff", "\n\n", "\ufeff , \n\n,,\n"],
                         ids=["empty", "bom", "blank_lines", "bom_blank_rows"])
@pytest.mark.parametrize("parse", [parse_jhu_wide, parse_long],
                         ids=["wide", "long"])
def test_empty_file(parse, text):
    with pytest.raises(DataFormatError, match="^empty file$"):
        parse(text)


@pytest.mark.parametrize("text", ["country,date,cumulative\n",
                                  "\ufeffcountry,date,cumulative\n"],
                         ids=["plain", "bom"])
def test_header_only_long_file_has_no_series(text):
    assert parse_long(text) == []


@pytest.mark.parametrize("parse,text,short_row,msg", [
    (parse_jhu_wide, WIDE_TEXT, ",U", "row 5: expected 7 cells, found 2"),
    (parse_long, LONG_TEXT, "A,2020-03-03", "row 6: expected 3 cells, found 2"),
], ids=["wide", "long"])
def test_blank_rows_before_the_header_are_skipped_and_counted(
        parse, text, short_row, msg):
    [plain] = parse(text)
    [padded] = parse("\n , \n" + text)
    assert (padded.name, padded.start) == (plain.name, plain.start)
    np.testing.assert_array_equal(padded.counts, plain.counts)
    with pytest.raises(DataFormatError, match=f"^{re.escape(msg)}$"):
        parse("\n , \n" + text + short_row)


@pytest.mark.parametrize("parse,text", [
    (parse_jhu_wide, f"{JHU_HEADER}\n,B,0,0,5,9,7\n"),
    (parse_long, "country,date,cumulative\n"
                 "B,2020-01-22,5\nB,2020-01-23,9\nB,2020-01-24,7\n"),
], ids=["wide", "long"])
def test_downward_revision_warns(parse, text):
    with pytest.warns(RuntimeWarning,
                      match=r"^B: cumulative count fell 9 -> 7 on 2020-01-24$"):
        [series] = parse(text)
    np.testing.assert_array_equal(series.counts, [5, 9, 7])


def test_parse_long_groups_and_sorts():
    rows = ["country,date,cumulative"]
    for d, c in [("2020-03-03", 30), ("2020-03-01", 10), ("2020-03-02", 20)]:
        rows.append(f"A,{d},{c}")
    series = parse_long("\n".join(rows))
    assert len(series) == 1
    np.testing.assert_array_equal(series[0].counts, [10, 20, 30])


def test_parse_long_duplicate_key_errors():
    text = "country,date,cumulative\nA,2020-03-01,1\nA,2020-03-01,2"
    with pytest.raises(DataFormatError, match="duplicate"):
        parse_long(text)


def test_parse_long_date_gap_errors():
    text = "country,date,cumulative\nA,2020-03-01,1\nA,2020-03-03,2"
    with pytest.raises(DataFormatError):
        parse_long(text)


# single cells, each read or rejected as date.fromisoformat reads it on
# the running Python; a good row of another country comes first, so a
# rejected cell is still named by its own row, and cells with its digits
# in other shapes are not taken for it; among them are the calendar's
# edges for the arithmetic reader of YYYY-MM-DD cells: leap days,
# impossible days and months, the first and last day of its range, and
# bytes that are no digit where one belongs ('/' and ':' stand next to
# the digits in ASCII, and a two-byte letter keeps the cell at 10 bytes)
@pytest.mark.parametrize("cell", [
    "20200102", "2020-W01-1", "0000-01-01", "-200-01-01", "+200-01-01",
    "today", "NaT", "2021-02-29", " 2020-03-01 ", "2020/01/01", "2020-01_01",
    "２０２０-01-01",
    "2000-02-29", "2020-02-29", "2100-02-29", "1900-02-29",
    "2020-04-31", "2020-01-00", "2020-01-32", "2020-00-10", "2020-13-01",
    "0001-01-01", "9999-12-31",
    "/020-01-01", "202:-01-01", "2020-/1-01", "2020-0:-01", "2020-01-/1",
    "2020-01-0:", "é20-01-01", "20é-01-01",
])
def test_date_cell_parity_with_fromisoformat(cell):
    text = f"country,date,cumulative\nA,2020-01-01,5\nB,{cell},7\n"
    try:
        expected = date.fromisoformat(cell.strip())
    except ValueError:
        msg = f"row 3: bad ISO date {cell!r}"
        with pytest.raises(DataFormatError, match=f"^{re.escape(msg)}$"):
            parse_long(text)
    else:
        _, b = parse_long(text)
        assert (b.name, b.start, b.counts.tolist()) == ("B", expected, [7])


def test_date_cells_shared_across_countries_are_read_once(monkeypatch):
    # bare YYYY-MM-DD cells are read by arithmetic and never reach
    # fromisoformat; one memo serves the whole parse for other cells, so
    # each padded copy of a date is read once, on its first sighting in
    # any country; a bad cell after good ones is named by its own row
    reads = []

    class CountingDate(date):
        @classmethod
        def fromisoformat(cls, cell):
            reads.append(cell)
            return date.fromisoformat(cell)

    monkeypatch.setattr(ingest, "date", CountingDate)
    text = ("country,date,cumulative\n"
            "A,2020-01-01,1\nA,2020-01-02,2\n"
            "B, 2020-01-01 ,3\nB,2020-01-02,4\nB,2020-01-03 ,5\n")
    a, b = parse_long(text)
    assert (a.name, a.start, a.counts.tolist()) == ("A", date(2020, 1, 1), [1, 2])
    assert (b.name, b.start, b.counts.tolist()) == ("B", date(2020, 1, 1), [3, 4, 5])
    assert sorted(reads) == ["2020-01-01", "2020-01-03"]

    bad = text + "C,2020-01-01,6\nC, 2020-01-02 ,7\nC,2020-01-32,8\n"
    with pytest.raises(DataFormatError, match=r"^row 9: bad ISO date '2020-01-32'$"):
        parse_long(bad)


def test_date_tables_and_every_day_of_two_years():
    years = range(1, 10_000)
    assert ingest._YEAR_DAYS[1:].tolist() == [
        date(y, 1, 1).toordinal() - 1 for y in years]
    assert ingest._LEAP[1:].tolist() == [calendar.isleap(y) for y in years]
    # every day of a leap year and of the year after, read by arithmetic
    # alone: no cell reaches the memo of the per-cell reader
    days = [date(2020, 1, 1) + timedelta(days=i) for i in range(366 + 365)]
    slab, starts, ends = _fields(",".join(d.isoformat() for d in days) + "\n")
    memo = {}
    assert ingest._date_cells(slab, starts, ends, memo).tolist() == [
        d.toordinal() for d in days]
    assert memo == {}


# the values and messages of the per-cell count parser, pinned in both
# layouts; {at} is the row and column of the cell
COUNT_CELLS = [
    (" 12 ", 12),
    ("1_000", 1000),
    ("1e3", 1000),
    ("12.0", 12),
    ("12.5", "non-integer count '12.5' at {at}"),
    ("inf", "non-integer count 'inf' at {at}"),
    ("nan", "non-integer count 'nan' at {at}"),
    ("-0", 0),
    ("9007199254740991", 2**53 - 1),
    ("9007199254740992",
     "count '9007199254740992' at {at} is out of range (2**53 or more)"),
]


@pytest.mark.parametrize("layout", ["wide", "long"])
@pytest.mark.parametrize("cell,expected", COUNT_CELLS,
                         ids=[c for c, _ in COUNT_CELLS])
def test_count_cell_parity(layout, cell, expected):
    if layout == "wide":
        text = f"{JHU_HEADER}\n,A,0,0,1,2,3\n,B,0,0,0,{cell},{cell}\n"
        parse, at = parse_jhu_wide, "row 3, column '1/23/20'"
    else:
        text = ("country,date,cumulative\nA,2020-01-01,1\n"
                f"B,2020-01-01,{cell}\n")
        parse, at = parse_long, "row 3, column 'cumulative'"
    if isinstance(expected, str):
        msg = expected.format(at=at)
        with pytest.raises(DataFormatError, match=f"^{re.escape(msg)}$"):
            parse(text)
    else:
        _, b = parse(text)
        assert b.counts[-1] == expected


# several faults in one file: the error names the first in file order
MULTI_FAULT = {
    "bad_count_before_short_row_in_one_run": (
        ["A,2020-01-01,1", "A,2020-01-02,2", "A,2020-01-03,3",
         "A,2020-01-04,x", "A,2020-01-05,5", "A,2020-01-06,6",
         "A,2020-01-07,7", "A,2020-01-08"],
        "non-numeric count 'x' at row 5, column 'cumulative'"),
    "duplicate_before_bad_count": (
        ["A,2020-01-01,1", "A,2020-01-02,2", "B,2020-01-01,1",
         "A,2020-01-01,3", "B,2020-01-02,x"],
        "duplicate row for ('A', 2020-01-01)"),
    "second_run_repeats_a_date": (
        ["A,2020-01-01,1", "A,2020-01-02,2", "B,2020-01-01,5",
         "B,2020-01-05,6", "A,2020-01-03,3", "A,2020-01-02,9"],
        "duplicate row for ('A', 2020-01-02)"),
    "first_repeat_in_the_file_wins": (
        ["A,2020-01-01,1", "B,2020-01-01,1", "B,2020-01-01,2",
         "A,2020-01-01,2"],
        "duplicate row for ('B', 2020-01-01)"),
    "duplicate_before_empty_country": (
        ["A,2020-01-01,1", "B,2020-01-01,1", "A,2020-01-01,2", " ,2020-01-02,3"],
        "duplicate row for ('A', 2020-01-01)"),
    "bad_date_after_blank_line": (
        ["A,2020-01-01,1", "", "A,2020-01-02,2", "B,2020-01-01,3",
         "B,2020-01-0x,4", "A,2020-01-03,x"],
        "row 6: bad ISO date '2020-01-0x'"),
    "gap_before_later_negative": (
        ["A,2020-01-01,1", "A,2020-01-03,2", "B,2020-01-01,-1"],
        "'A': dates must be consecutive days, found gap 2020-01-01 -> 2020-01-03"),
    "negative_before_later_gap": (
        ["A,2020-01-01,-1", "B,2020-01-01,1", "B,2020-01-03,2"],
        "'A': negative count -1 on 2020-01-01"),
    "short_row_after_a_gap": (
        ["A,2020-01-01,1", "A,2020-01-03,2", "B,2020-01-01"],
        "row 4: expected 3 cells, found 2"),
    "duplicate_after_a_gap": (
        ["A,2020-01-01,1", "A,2020-01-03,2", "B,2020-01-01,1",
         "B,2020-01-01,2"],
        "duplicate row for ('B', 2020-01-01)"),
    "duplicate_after_a_negative": (
        ["A,2020-01-01,-1", "B,2020-01-01,1", "B,2020-01-01,2"],
        "duplicate row for ('B', 2020-01-01)"),
    "bad_count_under_a_quoted_newline": (
        ['"A\nB",2020-01-01,1', '"A\nB",2020-01-02,x'],
        "non-numeric count 'x' at row 3, column 'cumulative'"),
    # the blank row's country cell must not pass for a looked-up country
    "empty_country_after_a_blank_row": (
        ["A,2020-01-01,1", " , ,", " ,2020-01-02,2"],
        "row 4: empty country"),
    # gaps and negative counts are named by country in file order, not by
    # row, and in one country the gap is named even after a negative
    "later_row_gap_of_the_first_country": (
        ["A,2020-01-01,1", "B,2020-01-01,-1", "A,2020-01-03,2"],
        "'A': dates must be consecutive days, found gap 2020-01-01 -> 2020-01-03"),
    "later_row_negative_of_the_first_country": (
        ["A,2020-01-01,1", "B,2020-01-01,1", "B,2020-01-03,2", "A,2020-01-02,-5"],
        "'A': negative count -5 on 2020-01-02"),
    # rows already in country and date order, whose only fault is a
    # repeated date
    "ordered_rows_repeat_a_date": (
        ["A,2020-01-01,1", "A,2020-01-02,2", "A,2020-01-02,3",
         "B,2020-01-01,1"],
        "duplicate row for ('A', 2020-01-02)"),
    "negative_then_gap_in_one_country": (
        ["A,2020-01-01,1", "B,2020-01-01,-1", "B,2020-01-02,1", "B,2020-01-04,2"],
        "'B': dates must be consecutive days, found gap 2020-01-02 -> 2020-01-04"),
}

# a chunk size past the length of every text written out in these tests,
# so that each is read in one slab, as at the default _CHUNK_CHARS
ONE_SLAB = 1 << 20


@pytest.mark.parametrize("chunk_chars", [1, 7, ONE_SLAB])
@pytest.mark.parametrize("rows,msg", MULTI_FAULT.values(), ids=MULTI_FAULT)
def test_parse_long_names_the_first_fault(monkeypatch, chunk_chars, rows, msg):
    # small chunks cut these files, and quoted cells, between StringIOs
    monkeypatch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
    text = "\n".join(["country,date,cumulative", *rows]) + "\n"
    with pytest.raises(DataFormatError, match=f"^{re.escape(msg)}$"):
        parse_long(text)


@pytest.mark.parametrize("parse,layout", [
    (parse_jhu_wide, "wide"), (parse_long, "long"),
], ids=["wide", "long"])
def test_byte_order_mark_costs_no_copy_of_the_text(monkeypatch, parse, layout):
    # chunks far shorter than the text, so that a whole-text copy stands
    # out against the one chunk the reader holds at a time
    monkeypatch.setattr(ingest, "_CHUNK_CHARS", 1 << 12)
    days = [date(2020, 1, 22) + timedelta(days=i) for i in range(400)]
    names = [f"C{k}" for k in range(40)]
    if layout == "wide":
        rows = ["Province/State,Country/Region,Lat,Long,"
                + ",".join(f"{d.month}/{d.day}/{d.year % 100}" for d in days)]
        rows += [f",{n},0,0," + ",".join(str(1000 + i) for i in range(len(days)))
                 for n in names]
    else:
        rows = ["country,date,cumulative"]
        rows += [f"{n},{d.isoformat()},{1000 + i}"
                 for n in names for i, d in enumerate(days)]
    plain = "\n".join(rows) + "\n"
    marked = "\ufeff" + plain
    def read(text):
        for _ in ingest._csv_reader(text):
            pass

    # the parse's own peak comes after the reader is done, so the reader
    # is measured alone
    assert traced_peak(read, marked) - traced_peak(read, plain) < len(plain) / 8
    assert ([(s.name, s.start, s.counts.tolist()) for s in parse(marked)]
            == [(s.name, s.start, s.counts.tolist()) for s in parse(plain)])

# CRLF ends, a byte-order mark, no final newline, and a quoted country
# cell whose newline ends a chunk at sizes 1 and 7
LINES_TEXTS = {
    "long": '\ufeffcountry,date,cumulative\r\n"Saint\nKitts",2020-01-01,1\r\n'
            '"Saint\nKitts",2020-01-02,2\r\nZ,2020-01-01,3',
    "wide": '\ufeffProvince/State,Country/Region,Lat,Long,1/22/20,1/23/20\r\n'
            ',"Saint\nKitts",0,0,1,2\r\n,Z,0,0,3,4',
}


@pytest.mark.parametrize("chunk_chars", [1, 7, ONE_SLAB])
@pytest.mark.parametrize("layout", ["long", "wide"])
def test_lines_match_one_stringio(monkeypatch, layout, chunk_chars):
    text = LINES_TEXTS[layout]
    parse = parse_long if layout == "long" else parse_jhu_wide
    expected = [(s.name, s.start, s.counts.tolist()) for s in parse(text)]
    monkeypatch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
    assert list(ingest._lines(text)) == list(io.StringIO(text))
    assert list(ingest._lines(text, 1)) == list(io.StringIO(text[1:]))
    assert [(s.name, s.start, s.counts.tolist())
            for s in parse(text)] == expected
    assert expected[0][0] == "Saint\nKitts"


def _date_major(long_text: str) -> str:
    """The rows of a long-layout text sorted by date, so that countries
    alternate row by row."""
    header, *rows = long_text.splitlines(keepends=True)
    return header + "".join(sorted(rows, key=lambda r: r.rsplit(",", 2)[1]))


def test_valid_files_never_take_the_re_read(monkeypatch):
    def row_loop(csv_text):
        raise AssertionError("a file of RFC 4180 text was read row by row")

    monkeypatch.setattr(ingest, "_read_long_rows", row_loop)
    monkeypatch.setattr(ingest, "_read_wide_rows", row_loop)
    fixtures = sorted(FIXTURES.glob("*.csv"))
    assert [p.name for p in fixtures if p.name.endswith("_long.csv")]
    for path in fixtures:
        parse = parse_long if path.name.endswith("_long.csv") else parse_jhu_wide
        assert parse(path.read_text(encoding="utf-8"))
    assert parse_jhu_wide(JHU_HEADER + "\n") == []
    # the small panel fits one slab; the large one, perfbench's, takes
    # several, with quoted names such as "Korea, South" and, in the wide
    # layout, countries split into province rows
    for size in ({"n_countries": 12, "n_days": 120}, {}):
        panel = generate_panel(FIXTURES, seed=1, **size)
        for parse, text in ((parse_long, panel.long_text),
                            (parse_long, _date_major(panel.long_text)),
                            (parse_jhu_wide, panel.wide_text)):
            parsed = parse(text)
            assert [s.name for s in parsed] == panel.names
            for s in parsed:
                assert s.start == panel.dates[0]
                np.testing.assert_array_equal(s.counts, panel.counts[s.name])
    assert len(panel.long_text) > 4 * ingest._CHUNK_CHARS
    assert len(panel.wide_text) > ingest._CHUNK_CHARS
    assert '"' in panel.long_text and '"' in panel.wide_text


def test_a_parse_holds_its_output_once():
    # above the series it returns, a parse of perfbench's large panel
    # holds its output columns once and one slab's temporaries; the long
    # text's three int64 columns alone are three times the series, and a
    # second copy of them, or the temporaries of slabs four times the
    # size, pass the bound
    panel = generate_panel(FIXTURES, seed=1)
    series_bytes = sum(c.nbytes for c in panel.counts.values())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for parse, text in ((parse_long, panel.long_text),
                            (parse_long, _date_major(panel.long_text)),
                            (parse_jhu_wide, panel.wide_text)):
            assert traced_peak(parse, text) - series_bytes < 5 * series_bytes


def test_a_parse_makes_no_str_count_pass(monkeypatch):
    # str.count runs a scalar loop over the characters it counts; the
    # byte readers count newlines and quotes with numpy on encoded bytes
    def row_loop(csv_text):
        raise AssertionError("a file of RFC 4180 text was read row by row")

    monkeypatch.setattr(ingest, "_read_long_rows", row_loop)
    monkeypatch.setattr(ingest, "_read_wide_rows", row_loop)
    panel = generate_panel(FIXTURES, seed=1)
    counted = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__qualname__", "") == "str.count":
            counted.append(len(arg.__self__))

    previous = sys.getprofile()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sys.setprofile(profile)
        try:
            parse_long(panel.long_text)
            parse_jhu_wide(panel.wide_text)
        finally:
            sys.setprofile(previous)
    assert counted == []


@pytest.mark.parametrize("layout", ["long", "wide"])
def test_columns_hold_every_row_when_the_first_slab_has_few(monkeypatch, layout):
    # the first slabs hold long quoted, padded names and the later ones
    # short rows, so that the first slab's rows per character are a
    # small part of the text's; the columns are sized once, for all rows
    names = [f'"  {k} {"é" * 60},\n  "' for k in range(4)] + [f"C{k}" for k in range(40)]
    days = [date(2020, 1, 22) + timedelta(days=i) for i in range(6)]
    if layout == "wide":
        parse, read, rows = parse_jhu_wide, "_read_wide", [
            "Province/State,Country/Region,Lat,Long,"
            + ",".join(f"{d.month}/{d.day}/{d.year % 100}" for d in days)]
        rows += [f",{n},0,0," + ",".join(str(i) for i in range(len(days)))
                 for n in names]
    else:
        parse, read, rows = parse_long, "_read_long", ["country,date,cumulative"]
        rows += [f"{n},{d.isoformat()},{i}" for n in names for i, d in enumerate(days)]
    text = "\n".join(rows) + "\n"
    expected = _outcome(text, parse)
    monkeypatch.setattr(ingest, "_CHUNK_CHARS", 256)
    sizes, bound = [], ingest._max_rows

    def max_rows(csv_text):
        sizes.append(bound(csv_text))
        return sizes[-1]

    monkeypatch.setattr(ingest, "_max_rows", max_rows)
    assert getattr(ingest, read + "_bytes")(text) is not None
    assert len(sizes) == 1 and sizes[0] >= len(rows)
    assert _outcome(text, parse) == expected
    monkeypatch.setattr(ingest, read + "_bytes", lambda csv_text: None)
    assert _outcome(text, parse) == expected
    assert len(expected[0]) == len(names)


def test_quote_parity_holds_across_a_cut_after_non_ascii_names(monkeypatch):
    # the names before the quoted newline take more bytes than characters,
    # so that a count of quotes that mixed character and byte offsets
    # would cut the slab inside the quoted cell
    rows = ["country,date,cumulative"]
    for name in ["Côte d'Ivoire", "日本", "Ελλάδα", "l\u2028s"]:
        rows += [f"{name},2020-01-0{d},{d}" for d in (1, 2)]
    rows += [f'"Saint\nKitts",2020-01-0{d},{d}' for d in (1, 2, 3)]
    rows += [f"Z,2020-01-0{d},{d}" for d in (1, 2)]
    text = "\n".join(rows) + "\n"
    quoted = text.index("Saint\n") + len("Saint")
    assert len(text[:quoted].encode()) > quoted
    expected: dict[str, list[int]] = {}
    for name, _, count in list(csv.reader(io.StringIO(text)))[1:]:
        expected.setdefault(name, []).append(int(count))

    def row_loop(csv_text):
        raise AssertionError("the byte reader declined the text")

    monkeypatch.setattr(ingest, "_read_long_rows", row_loop)
    # quoted + 1 puts the first cut candidate at the quoted newline
    for chunk_chars in [quoted + 1, *range(1, len(text) + 1, 3)]:
        monkeypatch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
        assert [(s.name, s.counts.tolist()) for s in parse_long(text)] == list(
            expected.items())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=st.text(alphabet='"\nab', max_size=30), pos=st.integers(0, 30))
def test_odd_quotes_line_end_is_the_first_line_end_past_odd_quotes(text, pos):
    # the reference counts the quotes before each line end in turn
    pos = min(pos, len(text))
    ends = [i + 1 for i in range(pos, len(text)) if text[i] == "\n"]
    expected = next((c for c in ends if text.count('"', pos, c) % 2), len(text))
    assert ingest._odd_quotes_line_end(text, pos) == expected


def _outcome(text: str, parse=parse_long):
    """The series and warnings that parse gives for text, or the message
    of its DataFormatError."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            series = parse(text)
    except DataFormatError as exc:
        return str(exc)
    return ([(s.name, s.start, s.counts.tolist()) for s in series],
            [str(w.message) for w in caught])


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


# names with commas, quotes, newlines, padding, non-ASCII letters and
# a line separator, and pairs that differ in their last byte only; date
# cells bare and padded; counts that only float reads
_RFC_NAMES = ["A", " A ", "b1", "b2", "a,b", 'q"q', "x\ny", "é", "l\u2028s",
              "Saint Kitts 1", "Saint Kitts 2", "Korea, South"]
_RFC_DATES = ["{}", " {} ", "{} "]
_RFC_COUNTS = ["7", "12", "007", "1e3", "12.0", " 5 ", "+3",
               "9007199254740991", "0" * 29 + "1"]
# cells that make a row fault (one of them all whitespace to
# str.strip), and rows that are all blank
_BAD_CELLS = {"country": [" ", "", "\x1c\u3000"],
              "date": ["2020-01-32", "x", "", "2020-1-05", "2020/01/02"],
              "cumulative": ["x", "-1", "12.5", "9007199254740992", "1e20", "",
                             "not available for this date"]}
_BLANK_ROWS = ["", ",,,", " , ,,", '"",,,']


# the messages of row faults, each of which names its row
_ROW_FAULT = re.compile(r"row \d+: |(non-numeric |non-integer )?count .* "
                        r"at row \d+, column |duplicate row for \(")


@st.composite
def _rfc_texts(draw):
    """Long-layout RFC 4180 text: a few countries on consecutive days,
    their rows shuffled or not, some cells quoted, and a few rows
    faulty, short or all blank."""
    columns = draw(st.permutations(["country", "date", "cumulative", "note"]))
    rows = []
    for name in draw(st.lists(st.sampled_from(_RFC_NAMES), min_size=1,
                              max_size=3, unique=True)):
        first = draw(st.integers(1, 3))
        for day in range(first, first + draw(st.integers(1, 4))):
            rows.append({
                "country": name,
                "date": draw(st.sampled_from(_RFC_DATES)).format(f"2020-01-0{day}"),
                "cumulative": draw(st.sampled_from(_RFC_COUNTS)),
                "note": draw(st.sampled_from(["", "n", "1,2"])),
            })
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    lines = [[draw(st.sampled_from([c, f" {c} ", _quoted(c)])) for c in columns]]
    for row in rows:
        if draw(st.integers(0, 9)) == 0:
            col = draw(st.sampled_from(sorted(_BAD_CELLS)))
            row = {**row, col: draw(st.sampled_from(_BAD_CELLS[col]))}
        cells = [_quoted(row[c]) if any(ch in row[c] for ch in ',"\n')
                 or draw(st.integers(0, 5)) == 0 else row[c] for c in columns]
        if draw(st.integers(0, 15)) == 0:
            cells = cells[:draw(st.integers(1, 3))]
        lines.append(cells)
        if draw(st.integers(0, 7)) == 0:
            lines.append([draw(st.sampled_from(_BLANK_ROWS))])
    if draw(st.booleans()):
        lines.insert(0, [draw(st.sampled_from(_BLANK_ROWS))])
    text = "\n".join(",".join(cells) for cells in lines)
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + text + draw(st.sampled_from(["\n", ""]))


@pytest.mark.parametrize("chunk_chars", [1, 7, ONE_SLAB])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(text=_rfc_texts())
def test_byte_reader_matches_the_row_loop(chunk_chars, text):
    # the same series and warnings, or the same fault, with the byte
    # reader and without it; it declines RFC 4180 text only for a row
    # fault, which the row loop names
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
        from_bytes = _outcome(text)
        columns = ingest._read_long_bytes(text)
        mp.setattr(ingest, "_read_long_bytes", lambda csv_text: None)
        assert _outcome(text) == from_bytes
    if columns is None:
        assert isinstance(from_bytes, str) and _ROW_FAULT.match(from_bytes)


# text outside RFC 4180, which only the row loop reads, as csv reads
# it: csv keeps a quote inside a cell and drops the quotes of a cell
# that does not end at its closing quote, a CR ends a row only before a
# newline, and a NUL is a character of its cell
OUTSIDE_RFC = {
    "mid_cell_quote": (
        'country,date,cumulative\nA"B,2020-01-01,1\nA"B,2020-01-02,2\n'
        '"C"D,2020-01-01,3\n',
        [('A"B', date(2020, 1, 1), [1, 2]), ("CD", date(2020, 1, 1), [3])]),
    "space_before_quote": (
        'country,date,cumulative\n "A",2020-01-01,1\n',
        [('"A"', date(2020, 1, 1), [1])]),
    "crlf": (
        "country,date,cumulative\r\nA,2020-01-01,1\r\nA,2020-01-02,2\r\n",
        [("A", date(2020, 1, 1), [1, 2])]),
    "lone_cr": (
        "country,date,cumulative\nA,2020-01-01,1\rA,2020-01-02,2\n",
        "row 2: new-line character seen in unquoted field"),
    "nul": (
        "country,date,cumulative\nA\0,2020-01-01,1\nA\0,2020-01-02,2\n",
        [("A\0", date(2020, 1, 1), [1, 2])]),
    # row faults, which the row loop names in file order as it reads
    "crlf_duplicate": (
        "country,date,cumulative\r\nA,2020-01-01,1\r\nA,2020-01-01,2\r\n",
        "duplicate row for ('A', 2020-01-01)"),
    "crlf_bad_count_before_duplicate": (
        "country,date,cumulative\r\nA,2020-01-01,1\r\nA,2020-01-02,x\r\n"
        "A,2020-01-01,3\r\n",
        "non-numeric count 'x' at row 3, column 'cumulative'"),
    "crlf_bad_count_on_a_duplicate": (
        "country,date,cumulative\r\nA,2020-01-01,1\r\nA,2020-01-01,x\r\n",
        "non-numeric count 'x' at row 3, column 'cumulative'"),
    "crlf_duplicate_before_short_row": (
        "country,date,cumulative\r\nA,2020-01-01,1\r\nA,2020-01-01,2\r\n"
        "A,2020-01-02\r\n",
        "duplicate row for ('A', 2020-01-01)"),
}


@pytest.mark.parametrize("chunk_chars", [1, 7, ONE_SLAB])
@pytest.mark.parametrize("text,expected", OUTSIDE_RFC.values(),
                         ids=OUTSIDE_RFC)
def test_text_outside_rfc_4180_is_read_row_by_row(monkeypatch, chunk_chars,
                                                  text, expected):
    monkeypatch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
    assert ingest._read_long_bytes(text) is None
    if isinstance(expected, str):
        with pytest.raises(DataFormatError, match=f"^{re.escape(expected)}"):
            parse_long(text)
    else:
        assert [(s.name, s.start, s.counts.tolist())
                for s in parse_long(text)] == expected


_WIDE_COUNTS = [*_RFC_COUNTS, "0", "00000000", "123456789", "999999999999999"]
# count cells that only float reads or that it rejects, and a negative
# count, which is no row fault
_WIDE_BAD_COUNTS = [*(c for c, _ in COUNT_CELLS), "x", "", "-1", "1e20",
                    "not available for this date"]
# header cells that, in place of another, put a date column out of
# sequence, make it unreadable, or rename a fixed column
_WIDE_BAD_HEADER_CELLS = ["1/30/20", "1/32/20", "Region"]


@st.composite
def _wide_texts(draw):
    """JHU wide-layout RFC 4180 text: a few countries, some split into
    province rows, their rows shuffled or not, some cells quoted, a few
    rows faulty, of another width or all blank, and blank rows before
    and after the header."""
    labels = [f"1/{22 + i}/20" for i in range(draw(st.integers(1, 4)))]
    header = [*ingest.JHU_FIXED_COLUMNS, *labels]
    if draw(st.integers(0, 19)) == 0:
        header[draw(st.integers(0, len(header) - 1))] = draw(
            st.sampled_from(_WIDE_BAD_HEADER_CELLS))
    rows = []
    for name in draw(st.lists(st.sampled_from(_RFC_NAMES), min_size=1,
                              max_size=3, unique=True)):
        for province in draw(st.sampled_from([[""], ["North", "South"],
                                              ["a,b", 'q"q', ""]])):
            row = [province, name, draw(st.sampled_from(["0", "-32.5", ""])),
                   "0", *(draw(st.sampled_from(_WIDE_COUNTS)) for _ in labels)]
            if draw(st.integers(0, 19)) == 0:
                row[1] = draw(st.sampled_from(_BAD_CELLS["country"]))
            if draw(st.integers(0, 19)) == 0:
                row[draw(st.integers(4, len(row) - 1))] = draw(
                    st.sampled_from(_WIDE_BAD_COUNTS))
            cells = [_quoted(c) if any(ch in c for ch in ',"\n')
                     or draw(st.integers(0, 5)) == 0 else c for c in row]
            if draw(st.integers(0, 15)) == 0:
                cells = draw(st.sampled_from([cells[:-1], [*cells, "1"]]))
            rows.append(cells)
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    blank_rows = [*_BLANK_ROWS, "," * (len(header) - 1)]
    lines = [[draw(st.sampled_from([c, f" {c} ", _quoted(c)])) for c in header]]
    for cells in rows:
        lines.append(cells)
        if draw(st.integers(0, 7)) == 0:
            lines.append([draw(st.sampled_from(blank_rows))])
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(0, [draw(st.sampled_from(blank_rows))])
    text = "\n".join(",".join(cells) for cells in lines)
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + text + draw(st.sampled_from(["\n", ""]))


# the messages of header faults
_HEADER_FAULT = re.compile(r"malformed |date column header: |empty file$")


@pytest.mark.parametrize("chunk_chars", [1, 7, ONE_SLAB])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(text=_wide_texts())
def test_wide_byte_reader_matches_the_row_loop(chunk_chars, text):
    # as for the long layout: the same outcome with the byte reader and
    # without it, and a text it declines has a row or header fault
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
        from_bytes = _outcome(text, parse_jhu_wide)
        columns = ingest._read_wide_bytes(text)
        mp.setattr(ingest, "_read_wide_bytes", lambda csv_text: None)
        assert _outcome(text, parse_jhu_wide) == from_bytes
    if columns is None:
        assert isinstance(from_bytes, str)
        assert _ROW_FAULT.match(from_bytes) or _HEADER_FAULT.match(from_bytes)


WIDE_OUTSIDE_RFC = {
    "crlf": (f"{JHU_HEADER}\r\n,A,0,0,1,2,3\r\n,B,0,0,4,5,6\r\n",
             [("A", date(2020, 1, 22), [1, 2, 3]),
              ("B", date(2020, 1, 22), [4, 5, 6])]),
    "nul": (f"{JHU_HEADER}\n,A\0,0,0,1,2,3\n",
            [("A\0", date(2020, 1, 22), [1, 2, 3])]),
    "mid_cell_quote": (f'{JHU_HEADER}\n,A"B,0,0,1,2,3\n,"C"D,0,0,4,5,6\n',
                       [('A"B', date(2020, 1, 22), [1, 2, 3]),
                        ("CD", date(2020, 1, 22), [4, 5, 6])]),
}


@pytest.mark.parametrize("chunk_chars", [1, 7, ONE_SLAB])
@pytest.mark.parametrize("text,expected", WIDE_OUTSIDE_RFC.values(),
                         ids=WIDE_OUTSIDE_RFC)
def test_wide_text_outside_rfc_4180_is_read_row_by_row(monkeypatch, chunk_chars,
                                                       text, expected):
    monkeypatch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
    assert ingest._read_wide_bytes(text) is None
    assert [(s.name, s.start, s.counts.tolist())
            for s in parse_jhu_wide(text)] == expected


def _fields(line: str):
    """The slab of one line of text, and the starts and ends of its fields."""
    [slab] = ingest._slabs(line, 0)
    ends = ingest._separators(np.frombuffer(slab, np.uint8))
    return slab, np.concatenate(([ingest._PAD], ends[:-1] + 1)), ends


# cells of 1 to 32 bytes, across the 8/9 and 15/16 byte boundaries of
# the word decoder and well past its two words: digits with and without
# leading zeros, and the same widths with one byte that is no digit
# ('/' and ':' stand next to the digits in ASCII), padding or quotes,
# which only float reads or rejects
_WORD_CELLS = [cell for n in range(1, 33) for cell in (
    "9" * n, "0" * n, "0" * (n - 1) + "7", "1" + "0" * (n - 1),
    "12345678901234567890123456789012"[:n], "9" * (n - 1) + "/",
    ":" + "9" * (n - 1), " " + "9" * (n - 1), "9" * (n - 1) + ".",
    "é" + "0" * (n - 1), f" {'0' * (n - 1)}7 ", _quoted("0" * (n - 1) + "7"),
    _quoted(f" {'0' * (n - 1)}7 "), "not available for this date"[:n])]


def _count_or_reject(cell: str):
    try:
        return int(ingest._counts([ingest._cell(cell.encode())])[0])
    except ValueError:
        return "rejected"


@pytest.mark.parametrize("before,k", [("", 0), ('"a,b",', 1), ("7,", 1)],
                         ids=["after_the_pad", "after_a_quoted_cell", "mid_row"])
def test_count_cells_decode_every_width_as_counts_does(monkeypatch, before, k):
    for cell in _WORD_CELLS:
        slab, starts, ends = _fields(f"{before}{cell},5\n")
        try:
            got = int(ingest._count_cells(slab, starts[k:k + 1], ends[k:k + 1])[0])
        except ValueError:
            got = "rejected"
        assert got == _count_or_reject(cell), cell
    # cells of every width in one call, where only those that are not 1
    # to 15 ASCII digits reach the per-cell reader
    accepted = [c for c in _WORD_CELLS if _count_or_reject(c) != "rejected"]
    expected = ingest._counts([ingest._cell(c.encode()) for c in accepted])
    read = []
    per_cell = ingest._counts

    def counts(cells):
        read.extend(cells)
        return per_cell(cells)

    monkeypatch.setattr(ingest, "_counts", counts)
    slab, starts, ends = _fields(before + ",".join(accepted) + "\n")
    np.testing.assert_array_equal(ingest._count_cells(slab, starts[k:], ends[k:]),
                                  expected)
    assert read == [ingest._cell(c.encode()) for c in accepted
                    if not re.fullmatch("[0-9]{1,15}", c)]


def _new_by_bytes(slab, starts, ends) -> list[bool]:
    """Whether each cell's bytes differ from the cell's before it."""
    cells = [slab[s:e] for s, e in zip(starts.tolist(), ends.tolist())]
    return [i == 0 or c != cells[i - 1] for i, c in enumerate(cells)]


def _new_cells_lines() -> dict[str, str]:
    """Lines of cells that _new_cells must tell apart or match: cells of
    0 to 40 bytes, each after an equal cell and after cells of its size
    that differ from it only at byte 0, 7, 8, 15, 16 or its last byte
    (across its head, middle and tail words), after its prefixes one
    byte shorter and longer, quoted cells, and, first on a line, cells
    of under 8 bytes right after the slab's pad."""
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN"
    cells = []
    for n in range(41):
        cell = letters[:n]
        cells += [cell, cell, letters[:n + 1], cell, letters[:max(n - 1, 0)], cell]
        for k in sorted({0, 7, 8, 15, 16, n - 1}):
            if 0 <= k < n:
                other = cell[:k] + "#" + cell[k + 1:]
                cells += [cell, other, other, cell]
    quoted = [_quoted("a,b"), _quoted("a,b"), _quoted("a,c"), _quoted('x"y'),
              _quoted('x"y'), _quoted(letters), _quoted(letters), _quoted("")]
    lines = {"sizes_0_to_40": ",".join(cells), "quoted": ",".join(quoted)}
    for name, c in {"empty": "", "1": "a", "2": "ab", "3": "abc", "7": "abcdefg",
                    "2_non_ascii": "é"}.items():
        lines[f"after_the_pad_{name}"] = f"{c},{c},{c}x,{c}x"
    return lines


NEW_CELLS_LINES = _new_cells_lines()


@pytest.mark.parametrize("line", NEW_CELLS_LINES.values(), ids=NEW_CELLS_LINES)
def test_new_cells_match_bytes_equality(line):
    slab, starts, ends = _fields(line + "\n")
    assert ingest._new_cells(slab, starts, ends).tolist() == _new_by_bytes(
        slab, starts, ends)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cells=st.lists(st.text(alphabet="ab", max_size=40), max_size=30))
def test_new_cells_match_bytes_equality_on_random_cells(cells):
    slab, starts, ends = _fields(",".join(cells) + "\n")
    assert ingest._new_cells(slab, starts, ends).tolist() == _new_by_bytes(
        slab, starts, ends)


LONG_CELL = "x" * 140_000
LONG_HEAD = "country,date,cumulative\n"


@pytest.mark.parametrize("parse,text,msg", [
    (parse_long, f"{LONG_HEAD}A,2020-01-01,1\n{LONG_CELL},2020-01-01,2\n",
     "row 3: field larger than field limit"),
    (parse_long, f"{LONG_HEAD}A,2020-01-01,1\nB\r,2020-01-01,2\n",
     "row 3: new-line character seen in unquoted field"),
    # a fault before the csv error is named first, in file order
    (parse_long, f"{LONG_HEAD}A,2020-01-0x,1\n{LONG_CELL},2020-01-01,2\n",
     "row 2: bad ISO date '2020-01-0x'"),
    (parse_long, f"\n{LONG_CELL},date,cumulative\n",
     "row 2: field larger than field limit"),
    (parse_jhu_wide, f"{JHU_HEADER}\n,A,0,0,1,2,3\n{LONG_CELL},B,0,0,1,2,3\n",
     "row 3: field larger than field limit"),
    (parse_jhu_wide, f"{JHU_HEADER}\n,A,0,0,1,2,3\r,B,0,0,1,2,3\n",
     "row 2: new-line character seen in unquoted field"),
    (parse_jhu_wide, f"\n{LONG_CELL},Country/Region,Lat,Long,1/22/20\n",
     "row 2: field larger than field limit"),
], ids=["long_field", "long_cr", "long_fault_first", "long_header",
        "wide_field", "wide_cr", "wide_header"])
def test_csv_errors_name_their_row(parse, text, msg):
    with pytest.raises(DataFormatError, match=f"^{re.escape(msg)}"):
        parse(text)


def _jhu_labels(days) -> list[str]:
    return [f"{d.month}/{d.day}/{d.year % 100:02d}" for d in days]


@pytest.mark.parametrize("labels", [
    ["01/22/20", "01/23/20", "01/24/20"],
    ["1/22/20", "01/23/20", "1/24/20"],
    ["12/30/99", "12/31/99", "1/1/00"],
    _jhu_labels(date(2020, 1, 22) + timedelta(days=i) for i in range(1000)),
], ids=["zero_padded", "one_padded", "century", "jhu_1000"])
def test_header_dates_as_strptime_reads_them(labels):
    header = "Province/State,Country/Region,Lat,Long," + ",".join(labels)
    [series] = parse_jhu_wide(f"{header}\n,A,0,0," + ",".join(["1"] * len(labels)))
    assert series.start == datetime.strptime(labels[0], "%m/%d/%y").date()
    assert ingest._header_dates(labels) == [
        datetime.strptime(lbl, "%m/%d/%y").date() for lbl in labels]


@pytest.mark.parametrize("labels,msg", [
    # %y reads 68 as 2068 and 69 as 1969
    ("12/31/68,1/1/69",
     "date column header: dates must be consecutive days, "
     "found gap 2068-12-31 -> 1969-01-01"),
    ("1/22/20,1/23/20,1/25/20",
     "date column header: dates must be consecutive days, "
     "found gap 2020-01-23 -> 2020-01-25"),
    ("1/22/20,1/32/20,1/x/20",
     "malformed date column header: "
     "time data '1/32/20' does not match format '%m/%d/%y'"),
], ids=["century_wrap", "gap", "first_bad_label"])
def test_header_dates_keep_their_faults(labels, msg):
    text = f"Province/State,Country/Region,Lat,Long,{labels}\n,A,0,0,1,2,3\n"
    with pytest.raises(DataFormatError, match=f"^{re.escape(msg)}$"):
        parse_jhu_wide(text)


def test_every_header_label_reads_as_strptime_reads_it():
    # every day %y can name, written the JHU way and zero-padded
    day, days = date(1969, 1, 1), []
    while day <= date(2068, 12, 31):
        days.append(day)
        day += timedelta(days=1)
    for labels in (_jhu_labels(days), [d.strftime("%m/%d/%y") for d in days]):
        assert [datetime.strptime(lbl, "%m/%d/%y").date() for lbl in labels] == days
        # each label is read on its own, so backwards as well
        assert ingest._header_dates(labels[::-1]) == days[::-1]


@pytest.mark.parametrize("label", ["0/1/20", "13/1/20", "2/30/20", "1/1/2020", " 1/1/20"])
def test_header_labels_strptime_rejects_keep_its_message(label):
    with pytest.raises(ValueError) as expected:
        datetime.strptime(label, "%m/%d/%y")
    with pytest.raises(ValueError) as got:
        ingest._header_dates([label])
    assert str(got.value) == str(expected.value)


def test_parsing_the_snapshot_imports_no_strptime():
    path = FIXTURES / "jhu_confirmed_snapshot_20200415.csv"
    code = ("import sys\n"
            "from latecast.ingest import parse_jhu_wide\n"
            f"assert parse_jhu_wide(open({str(path)!r}).read())\n"
            "print('_strptime' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=src_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


_NAMES = st.text(alphabet="ab ,\"", min_size=1, max_size=5).map(str.strip)


@st.composite
def _panels(draw):
    """Counts of a few countries on shared days, as (name, counts) pairs,
    plus the first day."""
    names = draw(st.lists(_NAMES.filter(bool), min_size=1, max_size=4,
                          unique=True))
    n_days = draw(st.integers(1, 6))
    counts = [draw(st.lists(st.integers(0, 10**6), min_size=n_days,
                            max_size=n_days)) for _ in names]
    start = date(2020, 1, 22) + timedelta(days=draw(st.integers(0, 400)))
    return list(zip(names, counts)), start


def _csv_text(rows, pad, blank_at, bom) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for i, row in enumerate(rows):
        if i in blank_at:
            writer.writerow([""] * len(row))
        writer.writerow([f" {c} " if pad else c for c in row])
    return ("\ufeff" if bom else "") + buf.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(panel=_panels(), data=st.data())
def test_both_layouts_parse_to_the_same_series(panel, data):
    series, start = panel
    days = [start + timedelta(days=i) for i in range(len(series[0][1]))]
    pad = data.draw(st.booleans(), "pad")
    bom = data.draw(st.booleans(), "bom")

    wide = [["Province/State", "Country/Region", "Lat", "Long",
             *(f"{d.month}/{d.day}/{d.year % 100}" for d in days)]]
    for name, counts in series:
        # a split country comes as province rows that sum to its counts
        if data.draw(st.booleans(), f"split {name}"):
            part = [data.draw(st.integers(0, c)) for c in counts]
            wide.append(["North", name, "0", "0", *part])
            wide.append(["South", name, "0", "0",
                         *(c - p for c, p in zip(counts, part))])
        else:
            wide.append(["", name, "0", "0", *counts])
    long_rows = data.draw(st.permutations(
        [[name, d.isoformat(), c] for name, counts in series
         for d, c in zip(days, counts)]), "long rows")
    long = [["country", "date", "cumulative"], *long_rows]

    texts = {}
    for layout, rows in (("wide", wide), ("long", long)):
        blank_at = data.draw(st.sets(st.integers(0, len(rows) - 1)),
                             f"{layout} blanks")
        texts[layout] = _csv_text(rows, pad, blank_at, bom)
    with warnings.catch_warnings():
        # random counts fall from day to day
        warnings.simplefilter("ignore", RuntimeWarning)
        from_wide = parse_jhu_wide(texts["wide"])
        from_long = parse_long(texts["long"])

    def as_dict(parsed):
        return {s.name: (s.start, s.counts.tolist()) for s in parsed}

    assert as_dict(from_wide) == as_dict(from_long) == {
        name: (start, counts) for name, counts in series}
    assert [s.name for s in from_wide] == [name for name, _ in series]
    assert [s.name for s in from_long] == list(dict.fromkeys(
        name for name, _, _ in long_rows))


@pytest.mark.parametrize("chunk_chars", [1, 7, ingest._CHUNK_CHARS])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_row_order_does_not_change_the_series(chunk_chars, data):
    # rows country by country, which parse_long reads without sorting
    # them, date by date or shuffled give the same series, listed in the
    # order of each country's first row, and the same warnings
    names = data.draw(st.lists(_NAMES.filter(bool), min_size=1, max_size=4,
                               unique=True), "names")
    expected, rows = {}, []
    for name in names:
        first = date(2020, 2, 26) + timedelta(days=data.draw(st.integers(0, 4)))
        counts = data.draw(st.lists(st.integers(0, 10**6), min_size=1,
                                    max_size=6), name)
        expected[name] = make_series(name, first, counts)
        rows += [[name, (first + timedelta(days=i)).isoformat(), c]
                 for i, c in enumerate(counts)]
    orders = {"country_major": rows,
              "date_major": sorted(rows, key=lambda row: row[1]),
              "shuffled": data.draw(st.permutations(rows), "shuffled")}
    pad = data.draw(st.booleans(), "pad")
    bom = data.draw(st.booleans(), "bom")
    for order, order_rows in orders.items():
        long = [["country", "date", "cumulative"], *order_rows]
        blank_at = data.draw(st.sets(st.integers(0, len(long) - 1)),
                             f"{order} blanks")
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            mp.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
            warnings.simplefilter("ignore", RuntimeWarning)
            series = parse_long(_csv_text(long, pad, blank_at, bom))
        want = [expected[name] for name in dict.fromkeys(r[0] for r in order_rows)]
        assert ([(s.name, s.start, s.counts.tolist()) for s in series]
                == [(s.name, s.start, s.counts.tolist()) for s in want])
        assert ingestion_warnings(series) == ingestion_warnings(want)


def test_to_tau_starts_at_first_crossing():
    s = make_series("A", date(2020, 3, 1), [50, 90, 100, 130])
    logs, start = to_tau(s, 100)
    assert start == date(2020, 3, 3)
    np.testing.assert_allclose(logs, np.log([100.0, 130.0]))


def test_to_tau_already_above_threshold():
    s = make_series("A", date(2020, 3, 1), [150])
    logs, start = to_tau(s, 100)
    assert start == date(2020, 3, 1)
    np.testing.assert_allclose(logs, [math.log(150.0)])


def test_to_tau_never_reached_carries_max():
    s = make_series("A", date(2020, 3, 1), [12, 40, 99])
    with pytest.raises(NotLatecomerError) as exc:
        to_tau(s, 100)
    assert exc.value.max_count == 99
    assert "99" in str(exc.value)


def test_to_tau_shift_equivariant():
    # prepending sub-threshold history must not change the tau series
    rng = np.random.default_rng(7001)
    for _ in range(25):
        n = int(rng.integers(3, 15))
        counts = np.cumsum(rng.integers(5, 60, n)) + 100
        pad = list(rng.integers(0, 100, int(rng.integers(1, 10))))
        pad.sort()
        base = make_series("A", date(2020, 3, 10), counts)
        padded = make_series(
            "A", date(2020, 3, 10), pad + list(counts)
        )
        logs_a, start_a = to_tau(base, 100)
        logs_b, start_b = to_tau(padded, 100)
        np.testing.assert_array_equal(logs_a, logs_b)
        assert start_b == date(2020, 3, 10 + len(pad))
        assert start_a == date(2020, 3, 10)


def test_zero_count_after_threshold_is_an_error():
    s = make_series("A", date(2020, 3, 1), [120, 0, 140])
    with pytest.raises(DataFormatError, match="zero"):
        to_tau(s, 100)


def test_threshold_crossing_helper():
    assert threshold_crossing([1, 5, 100, 200], 100) == 2
    assert threshold_crossing([1, 5], 100) is None


def test_inflation_weights_shapes():
    np.testing.assert_array_equal(inflation_weights(6), [1, 1, 1, 2, 3, 4])
    np.testing.assert_array_equal(inflation_weights(4), [1, 2, 3, 4])
    np.testing.assert_array_equal(inflation_weights(3), [2, 3, 4])
    np.testing.assert_array_equal(inflation_weights(2), [3, 4])
    np.testing.assert_array_equal(inflation_weights(1), [4])


def test_inflation_weights_are_nondecreasing_and_at_least_one():
    for k in range(1, 40):
        w = inflation_weights(k)
        assert len(w) == k
        assert np.all(np.diff(w) >= 0)
        assert w.min() >= 1


def test_weights_equal_row_duplication():
    # weighted normal equations versus literally repeating the rows
    rng = np.random.default_rng(7002)
    for _ in range(20):
        k = int(rng.integers(4, 12))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(k, p))
        y = rng.normal(size=k)
        w = inflation_weights(k)
        bw = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * y))
        reps = np.repeat(np.arange(k), w.astype(int))
        bd, *_ = np.linalg.lstsq(X[reps], y[reps], rcond=None)
        np.testing.assert_allclose(bw, bd, atol=1e-10)


def _peer(name, start, n, first=120, step=1.35):
    counts = [int(first * step**i) for i in range(n)]
    return make_series(name, start, counts)


def test_build_panel_drops_short_peers_with_log():
    target = _peer("T", date(2020, 3, 20), 21)
    peer_a = _peer("A", date(2020, 2, 1), 40)
    peer_b = _peer("B", date(2020, 2, 1), 22)
    panel = build_panel(target, [peer_a, peer_b], threshold=100,
                        max_horizon=14, window=21)
    assert panel.peer_names == ["A"]
    reasons = {d["peer"]: d for d in panel.drop_log}
    assert reasons["B"]["reason"] == "too_short"
    assert reasons["B"]["required"] == 21 + 14
    assert reasons["B"]["len"] == 22


def test_build_panel_shrinks_window_with_warning():
    target = _peer("T", date(2020, 3, 20), 10)
    peer = _peer("A", date(2020, 2, 1), 40)
    with pytest.warns(RuntimeWarning, match="shrinking window"):
        panel = build_panel(target, [peer], threshold=100,
                            max_horizon=14, window=21)
    assert panel.window == 10


@pytest.mark.parametrize("fn,args", [
    (build_panel, (_peer("T", date(2020, 3, 20), 10),
                   [_peer("A", date(2020, 2, 1), 40)], 100, 14, 21)),
    (parse_jhu_wide, (f"{JHU_HEADER}\n,B,0,0,5,9,7\n",)),
    (parse_long, ("country,date,cumulative\n"
                  "B,2020-01-22,5\nB,2020-01-23,9\nB,2020-01-24,7\n",)),
], ids=["window_shrink", "wide_revision", "long_revision"])
def test_warnings_point_at_the_caller(fn, args):
    with pytest.warns(RuntimeWarning) as record:
        fn(*args)
    assert [w.filename for w in record] == [__file__]


def test_build_panel_all_peers_short_errors():
    target = _peer("T", date(2020, 3, 20), 21)
    peer = _peer("A", date(2020, 3, 1), 25)
    with pytest.raises(DataFormatError, match="no peer"):
        build_panel(target, [peer], threshold=100, max_horizon=14, window=21)


def test_panel_roundtrip_and_floor():
    rng = np.random.default_rng(7003)
    for _ in range(10):
        n = int(rng.integers(8, 16))
        h = int(rng.integers(1, 5))
        t_counts = np.cumsum(rng.integers(20, 200, n)) + 100
        p_counts = np.cumsum(rng.integers(20, 200, n + h)) + 100
        target = make_series("T", date(2020, 3, 20), t_counts)
        peer = make_series("A", date(2020, 3, 1), p_counts)
        panel = build_panel(target, [peer], threshold=100,
                            max_horizon=h, window=max(2, n - 2))
        assert math.exp(panel.y[0]) >= 100 - 1e-9
        np.testing.assert_allclose(panel.y, np.log(t_counts))
        np.testing.assert_allclose(panel.X[:, 0], np.log(p_counts))
        assert panel.X.shape == (n + h, 1)


def test_panel_invariant_to_peer_order():
    rng = np.random.default_rng(7004)
    target = _peer("T", date(2020, 3, 20), 21)
    peers = [_peer(f"P{j}", date(2020, 2, 1), 40 + j) for j in range(4)]
    base = build_panel(target, peers, threshold=100, max_horizon=14, window=21)
    for _ in range(5):
        perm = rng.permutation(len(peers))
        shuffled = [peers[i] for i in perm]
        other = build_panel(target, shuffled, threshold=100,
                            max_horizon=14, window=21)
        assert other.peer_names == base.peer_names
        np.testing.assert_array_equal(other.X, base.X)


def test_truncate_series():
    s = make_series("A", date(2020, 3, 1), [1, 2, 3, 4])
    cut = truncate_series(s, date(2020, 3, 2))
    np.testing.assert_array_equal(cut.counts, [1, 2])
    assert cut.end == date(2020, 3, 2)


def test_ingestion_warnings_flag_downward_revisions():
    ok = make_series("A", date(2020, 3, 1), [1, 2, 3])
    rev = make_series("B", date(2020, 3, 1), [5, 9, 7])
    warns = ingestion_warnings([ok, rev])
    assert len(warns) == 1
    assert warns[0]["country"] == "B"
    assert warns[0]["date"] == "2020-03-03"

