"""Tests for CSV parsing, writing, and cell formatting."""

import contextlib
import csv
import math
import os
import re
import tempfile
import threading
import tracemalloc
import warnings
from datetime import date, timedelta
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from erp_lab import io as erp_io
from erp_lab.errors import (
    BadDateError,
    BadValueError,
    DuplicateDateError,
    EmptyInputError,
    MalformedCsvError,
    MissingColumnError,
)
from erp_lab.io import (
    CELL_FORMAT,
    SeriesFileSpec,
    _fields_fit,
    _fixed,
    _iso_days,
    _parse_iso,
    _parse_rows,
    _rows,
    csv_header,
    format_cell,
    parse_series,
    write_rows,
    write_series,
)
from erp_lab.timeseries import _BLOCK, DatedSeries


def write(tmp_path, text, name="in.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestParseSeries:
    def test_basic_file(self, tmp_path):
        path = write(tmp_path, "date,close\n2009-01-02,931.80\n2009-01-05,927.45\n")
        s = parse_series(SeriesFileSpec(path, value_column="close"))
        assert s.dates == (date(2009, 1, 2), date(2009, 1, 5))
        np.testing.assert_array_equal(s.values, [931.80, 927.45])

    def test_percent_scale(self, tmp_path):
        path = write(tmp_path, "date,rate\n2009-01-02,2.46\n")
        s = parse_series(SeriesFileSpec(path, value_column="rate", value_scale=0.01))
        assert s.values[0] == pytest.approx(0.0246, abs=1e-15)

    def test_rows_sorted_by_date(self, tmp_path):
        path = write(tmp_path, "date,value\n2009-01-05,2.0\n2009-01-02,1.0\n")
        s = parse_series(SeriesFileSpec(path))
        assert s.dates == (date(2009, 1, 2), date(2009, 1, 5))
        np.testing.assert_array_equal(s.values, [1.0, 2.0])

    def test_extra_columns_ignored(self, tmp_path):
        path = write(tmp_path, "date,open,close\n2009-01-02,900.0,931.80\n")
        s = parse_series(SeriesFileSpec(path, value_column="close"))
        assert s.values[0] == 931.80

    def test_custom_date_format(self, tmp_path):
        path = write(tmp_path, "date,value\n01/02/2009,5.0\n",
                     name="us.csv")
        s = parse_series(SeriesFileSpec(path, date_format="%m/%d/%Y"))
        assert s.dates == (date(2009, 1, 2),)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "day,value\n2009-01-02,1.0\n")
        with pytest.raises(MissingColumnError, match="'date'"):
            parse_series(SeriesFileSpec(path))

    def test_bad_date_carries_line_number(self, tmp_path):
        path = write(tmp_path, "date,value\n2009-01-02,1.0\nnot-a-date,2.0\n")
        with pytest.raises(BadDateError, match="line 3"):
            parse_series(SeriesFileSpec(path))

    def test_bad_value_carries_line_number(self, tmp_path):
        path = write(tmp_path, "date,value\n2009-01-02,oops\n")
        with pytest.raises(BadValueError, match="line 2"):
            parse_series(SeriesFileSpec(path))

    def test_blank_value_rejected(self, tmp_path):
        path = write(tmp_path, "date,value\n2009-01-02,\n")
        with pytest.raises(BadValueError):
            parse_series(SeriesFileSpec(path))

    def test_nan_value_rejected(self, tmp_path):
        path = write(tmp_path, "date,value\n2009-01-02,nan\n")
        with pytest.raises(BadValueError, match="non-finite"):
            parse_series(SeriesFileSpec(path))

    def test_duplicate_date_rejected(self, tmp_path):
        path = write(tmp_path, "date,value\n2009-01-02,1.0\n2009-01-02,2.0\n")
        with pytest.raises(DuplicateDateError):
            parse_series(SeriesFileSpec(path))

    def test_header_only_file_rejected(self, tmp_path):
        path = write(tmp_path, "date,value\n")
        with pytest.raises(EmptyInputError):
            parse_series(SeriesFileSpec(path))

    @pytest.mark.parametrize("date_format, day", [("%Y-%m-%d", "2009-01-02"),
                                                   ("%m/%d/%Y", "01/02/2009")])
    def test_file_that_is_not_utf8_is_named(self, tmp_path, date_format, day):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"date,value\n" + day.encode() + b",1\xff0\n")
        with pytest.raises(MalformedCsvError,
                           match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xff"):
            parse_series(SeriesFileSpec(str(path), date_format=date_format))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_series(SeriesFileSpec(str(tmp_path / "nope.csv")))

    def test_bad_scale_rejected_at_spec(self):
        with pytest.raises(ValueError):
            SeriesFileSpec("x.csv", value_scale=0.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_non_finite_scale_rejected_at_spec(self, scale):
        with pytest.raises(ValueError, match=f"^x.csv: value_scale must be positive and "
                                             f"finite, got {scale}$"):
            SeriesFileSpec("x.csv", value_scale=scale)


def hexes(series):
    return [v.hex() for v in series.values.tolist()]


def outcome(parse, spec):
    """What ``parse(spec)`` gives under the CLI's float traps: a series, or
    the type and message of what it raised."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return parse(spec)
    except Exception as exc:
        return type(exc), str(exc)


# Dates numpy reads but strptime("%Y-%m-%d") rejects, or the reverse, or
# neither; each must end in the row loop's outcome.
DATE_TRAPS = ["2020-01", "2020", "NaT", "+2020-01-05", "2020-01-05T00", "20200105",
              "0000-01-01", "10000-01-01", "2020-1-5", "\u0662\u0660\u0662\u0660-"
              "\u0660\u0661-\u0660\u0665", "2020-01-05\x00", "2020-02-30", "today", "",
              # a byte just below "0" and just above "9" at a digit position,
              # a wrong separator at each dash, and a non-NUL eleventh byte
              "2020-0/-05", "2020-0:-05", "2020/01-05", "2020-01/05", "2020-01-051"]
# Values Python's float and numpy's tokenizer might read differently: each
# must give the row loop's value, or its error.
VALUE_TRAPS = ["1_0", "nan", "1e400", "1e308", "-0.0", "", "abc", "\u0663", "inf", "Infinity",
               "iNf", "NaN", "nan(1)", "1_000", "0x10", "1.", ".", "1e+", "1\x00", "\x001"]
ISO_DAYS = st.one_of(
    st.sampled_from(["0001-01-01", "1969-12-31", "1970-01-01", "2020-02-29",
                     "2020-03-01", "9999-12-31"]),
    st.dates().map(date.isoformat),
)
DATE_CELLS = st.one_of(ISO_DAYS, ISO_DAYS, ISO_DAYS, ISO_DAYS, ISO_DAYS.map(" {} ".format),
                       st.sampled_from(DATE_TRAPS))
FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
VALUE_CELLS = st.one_of(FINITE, FINITE, st.integers(-10**6, 10**6).map(str),
                        st.sampled_from(VALUE_TRAPS))
# How a read cell is written.  Both readers read the first few alike for a
# clean cell: quoted, and a value also padded; the rest are traps.
DATE_WRAPS = ["{}", '"{}"', " {} ", ' "{}"', '"{}" ', "\xa0{}", "{}#", "#{}"]
VALUE_WRAPS = ["{}", '"{}"', " {} ", "\t{}\t", "\xa0{}\xa0", '"{}" ', ' "{}"', "{}#", "#{}"]
# Cells of a column nobody reads: quoted, holding a delimiter or a line break
UNUSED_CELLS = st.sampled_from(["z", "#", '"a,b"', '"x""y"', '"a\nb"', '"a\r\nb"', '"a\rb"'])
# Lines between rows: blank ones are skipped, whitespace-only ones are rows
STRAY_LINES = ["", " ", "\t", "\xa0"]
# R's write.csv names its row-name column "", and a quoted name may hold a
# line break
SHAPES_OF_BOTH = [["date", "value"], ["value", "date"], ["date", "value", "date"],
                  ["value", "date", "value"], ["x", "date", "value", "y"], ["", "date", "value"],
                  ["x\ny", "date", "value"], ["date", "x\ry", "value"], ["x\r\ny", "value", "date"]]
HEADERS = st.sampled_from(SHAPES_OF_BOTH + [["date"], ["day", "value"]])
HEADERS_OF_BOTH = st.sampled_from(SHAPES_OF_BOTH)


@st.composite
def series_text(draw):
    """Text of a small series file: header shapes DictReader resolves in its
    own way (repeated names keep the last), names quoted as R's write.csv
    quotes them or holding a line break, short, blank and whitespace-only
    rows, repeated and unsorted dates, quoted and padded cells, quoted line
    breaks, the date and value traps, and a leading byte-order mark."""
    # half the files hold no trap, so that the fast path's series is
    # compared with the row loop's often
    traps = draw(st.booleans())
    header = draw(HEADERS if traps else HEADERS_OF_BOTH)
    if traps:
        cells = {"date": (DATE_CELLS, DATE_WRAPS), "value": (VALUE_CELLS, VALUE_WRAPS)}
        strays = STRAY_LINES
    else:
        cells = {"date": (ISO_DAYS, DATE_WRAPS[:2]), "value": (FINITE, VALUE_WRAPS[:6])}
        strays = STRAY_LINES[:1]
    quote_all = draw(st.booleans())
    lines = [",".join(f'"{name}"' if quote_all or "\n" in name or "\r" in name else name
                      for name in header)]
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(st.sampled_from(cells[name][1])).format(draw(cells[name][0]))
               if name in cells else draw(UNUSED_CELLS) for name in header]
        if traps and draw(st.integers(0, 9)) == 0:
            row = row[:draw(st.integers(0, len(row) - 1))]  # short, or blank
        lines.append(",".join(row))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(strays)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    # a byte-order mark, as Excel's "CSV UTF-8" export writes
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + newline.join(lines) + newline


SCALES = st.sampled_from([1.0, 10.0, 0.01, 1e-300, 1e300])


def check_matches_row_loop(text, scale):
    """``parse_series`` on ``text`` gives the row loop's outcome, and the
    fast path gives the row loop's series or ``None``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        spec = SeriesFileSpec(path, value_scale=scale)
        expected = outcome(_parse_rows, spec)
        assert outcome(parse_series, spec) == expected
        fast = _parse_iso(spec)
    if isinstance(expected, DatedSeries):
        assert fast is None or (fast == expected and hexes(fast) == hexes(expected))
    else:
        assert fast is None


class TestIsoFastPath:
    """ISO files are read column-wise only where that gives the row loop's
    series; everything else is the row loop's outcome."""

    def test_well_formed_file_takes_the_fast_path(self, tmp_path):
        rows = "".join(f"{date(1999, 12, 31) + timedelta(days=i)},{100 + i / 7:.2f}\n"
                       for i in range(50))
        spec = SeriesFileSpec(write(tmp_path, "date,close\n" + rows), value_column="close",
                              value_scale=0.01)
        fast = _parse_iso(spec)
        assert fast is not None
        assert fast == _parse_rows(spec)

    def test_byte_order_mark_takes_the_fast_path(self, tmp_path):
        text = "date,value\n2020-01-06,2.5\n2020-01-05,1.0\n"
        plain = SeriesFileSpec(write(tmp_path, text, "plain.csv"))
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        fast = _parse_iso(SeriesFileSpec(str(bom)))
        assert fast is not None
        assert fast == _parse_rows(SeriesFileSpec(str(bom))) == parse_series(plain)

    def test_other_date_formats_skip_the_fast_path(self, tmp_path):
        path = write(tmp_path, "date,value\n2009-01-02,1.0\n")
        s = parse_series(SeriesFileSpec(path, date_format="%Y-%d-%m"))
        assert s.dates == (date(2009, 2, 1),)

    @pytest.mark.parametrize("trap", DATE_TRAPS)
    def test_date_traps_fall_back_to_the_row_loop(self, tmp_path, trap):
        path = write(tmp_path, f"date,value\n2009-01-02,1.0\n{trap},2.0\n")
        spec = SeriesFileSpec(path)
        assert _parse_iso(spec) is None
        assert outcome(parse_series, spec) == outcome(_parse_rows, spec)

    def test_scaled_overflow_is_a_value_error_under_float_traps(self, tmp_path):
        path = write(tmp_path, "date,value\n2009-01-02,1e308\n")
        got = outcome(parse_series, SeriesFileSpec(path, value_scale=10))
        assert got == (ValueError, "values must be finite (no NaN or infinity)")

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_month_runs_match_row_loop(self, data):
        # runs of 4 to 12 rows of one month, so the file takes the month
        # path; months repeated and out of order, unsorted days within a
        # run, and now and then a day its month does not have, day 00,
        # month 00 or 13, or year 0000, inside a run
        rows = []
        for _ in range(data.draw(st.integers(1, 6))):
            year = data.draw(st.sampled_from([1, 1969, 2019, 2020, 2021, 9999]))
            month = data.draw(st.integers(1, 12))
            days = data.draw(st.lists(st.integers(1, 28), min_size=4, max_size=12, unique=True))
            rows += [f"{year:04d}-{month:02d}-{day:02d}" for day in days]
        if data.draw(st.booleans()):
            rows[data.draw(st.integers(0, len(rows) - 1))] = data.draw(st.sampled_from(
                ["2019-02-29", "2021-04-31", "2020-02-30", "2020-01-00", "2020-00-05",
                 "2020-13-05", "0000-01-05", "2020-02-29", "2021-12-31"]))
        text = "date,value\n" + "".join(f"{row},{i}.5\n" for i, row in enumerate(rows))
        check_matches_row_loop(text, 1.0)

    @pytest.mark.parametrize("day, valid", [("2019-02-28", True), ("2019-02-29", False),
                                            ("2020-02-29", True), ("2020-02-30", False),
                                            ("2021-04-30", True), ("2021-04-31", False),
                                            ("2021-12-31", True), ("2021-12-00", False),
                                            ("2021-00-01", False), ("2021-13-01", False),
                                            ("0000-12-01", False)])
    def test_month_run_checks_each_day(self, tmp_path, day, valid):
        # the day among 11 rows of its month: the month path reads it
        month = day[:8]
        rows = [f"{month}{d:02d}" for d in range(1, 11)] + [day]
        path = write(tmp_path, "date,value\n" + "".join(f"{r},{i}\n" for i, r in enumerate(rows)))
        spec = SeriesFileSpec(path)
        fast, slow = _parse_iso(spec), outcome(_parse_rows, spec)
        assert (fast is not None) == valid
        if valid:
            assert fast == slow and fast.days[-1] == np.datetime64(day)
        else:
            assert outcome(parse_series, spec) == slow

    @pytest.mark.parametrize("row", [31, 45], ids=["run-head", "mid-run"])
    @pytest.mark.parametrize("position", range(11))
    def test_month_run_checks_each_date_byte(self, tmp_path, position, row):
        # 91 days from 2020-01-01 take the month path, which checks a run's
        # YYYY-MM- bytes at its head only; ":", just above "9", at one byte
        # of February's first row or of one inside its run (the eleventh
        # byte, the NUL after the date, becomes a trailing ":")
        days = [str(date(2020, 1, 1) + timedelta(days=i)) for i in range(91)]
        clean = SeriesFileSpec(write(tmp_path, "date,value\n" + "".join(
            f"{day},{i / 7!r}\n" for i, day in enumerate(days)), "clean.csv"))
        fast, slow = _parse_iso(clean), _parse_rows(clean)
        assert fast == slow and hexes(fast) == hexes(slow)
        days[row] = days[row][:position] + ":" + days[row][position + 1:]
        spec = SeriesFileSpec(write(tmp_path, "date,value\n" + "".join(
            f"{day},{i / 7!r}\n" for i, day in enumerate(days))))
        assert _parse_iso(spec) is None
        expected = outcome(_parse_rows, spec)
        assert expected == (BadDateError, f"{spec.path} line {row + 2}: bad date {days[row]!r}")
        assert outcome(parse_series, spec) == expected

    @given(text=series_text(), scale=SCALES)
    @settings(max_examples=300, deadline=None)
    def test_matches_row_loop(self, text, scale):
        check_matches_row_loop(text, scale)

    @given(text=series_text(), scale=SCALES)
    @settings(max_examples=300, deadline=None)
    def test_matches_row_loop_by_name(self, text, scale):
        with mock.patch.object(erp_io, "_NAMED_READ", 0):
            check_matches_row_loop(text, scale)

    @pytest.mark.parametrize("body", ["", " \n"], ids=["header-only", "whitespace-line"])
    def test_no_data_rows_raise_no_warning(self, tmp_path, body):
        spec = SeriesFileSpec(write(tmp_path, "date,value\n" + body))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = outcome(parse_series, spec)
        assert [str(w.message) for w in caught] == []
        assert got == outcome(_parse_rows, spec)
        assert got[0] is (EmptyInputError if not body else BadDateError)


# _NAMED_READ for each way the fast path hands a file to np.loadtxt
ROUTES = {"by name": 0, "as lines": 1 << 62}
LONG = 200_000  # characters, above the csv module's default field limit
# text after a "date,value,note" header whose note the row loop's reader
# refuses: unquoted; quoted, with line breaks; and quoted in the row after a
# quote the reader keeps as text, so that counting quotes alone misplaces
# the records
LONG_NOTES = {
    "unquoted": f"2020-01-01,1,{'n' * LONG}\n",
    "quoted": '2020-01-01,1,"' + ("n" * 999 + "\n") * (LONG // 1000) + '"\n',
    "after a text quote": ('2020-01-01,1,a"b\n2020-01-02,2,"' + "n" * (LONG // 2) + "\n"
                           + "n" * (LONG // 2) + '"\n'),
}


def loadtxt_sources(monkeypatch):
    """The first argument of each ``np.loadtxt`` call made from here on."""
    sources, real = [], np.loadtxt

    def spy(source, *args, **kwargs):
        sources.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return sources


def many_rows(n, quoted=False):
    """A series file of ``n`` rows: plain, or quoted as R's write.csv
    quotes it, with a row-name column."""
    days = [date(1900, 1, 1) + timedelta(days=i) for i in range(n)]
    if quoted:
        return '"","date","value"\n' + "".join(f'"{i + 1}","{d}",{i / 7:.4f}\n'
                                               for i, d in enumerate(days))
    return "date,value\n" + "".join(f"{d},{i / 7:.4f}\n" for i, d in enumerate(days))


class TestNamedRead:
    """Large regular files are handed to np.loadtxt by name; every other
    input as lines of the text read once.  Either way the outcome is the
    row loop's."""

    def test_large_regular_file_is_read_by_name(self, tmp_path, monkeypatch):
        sources = loadtxt_sources(monkeypatch)
        spec = SeriesFileSpec(write(tmp_path, many_rows(5000)))
        assert os.path.getsize(spec.path) >= erp_io._NAMED_READ
        fast = _parse_iso(spec)
        assert sources == [os.path.abspath(spec.path)]
        assert fast == _parse_rows(spec) and hexes(fast) == hexes(_parse_rows(spec))

    def test_small_file_is_read_as_lines(self, tmp_path, monkeypatch):
        sources = loadtxt_sources(monkeypatch)
        spec = SeriesFileSpec(write(tmp_path, many_rows(110)))
        assert _parse_iso(spec) == _parse_rows(spec)
        assert len(sources) == 1 and isinstance(sources[0], list)

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    @pytest.mark.parametrize("named_read", ROUTES.values(), ids=ROUTES.keys())
    def test_long_file_of_short_fields_takes_the_fast_path(self, tmp_path, quoted, named_read):
        spec = SeriesFileSpec(write(tmp_path, many_rows(10_000, quoted)))
        assert os.path.getsize(spec.path) > csv.field_size_limit()
        with mock.patch.object(erp_io, "_NAMED_READ", named_read):
            fast = _parse_iso(spec)
        assert fast is not None
        assert fast == _parse_rows(spec) and hexes(fast) == hexes(_parse_rows(spec))

    @pytest.mark.parametrize("notes", LONG_NOTES.values(), ids=LONG_NOTES.keys())
    @pytest.mark.parametrize("named_read", ROUTES.values(), ids=ROUTES.keys())
    def test_field_over_the_limit_is_the_row_loops_error(self, tmp_path, notes, named_read):
        spec = SeriesFileSpec(write(tmp_path, "date,value,note\n" + notes))
        with mock.patch.object(erp_io, "_NAMED_READ", named_read):
            assert _parse_iso(spec) is None
            got = outcome(parse_series, spec)
        assert got == outcome(_parse_rows, spec)
        assert got[0] is MalformedCsvError and "field larger than field limit" in got[1]

    @pytest.mark.parametrize("named_read", ROUTES.values(), ids=ROUTES.keys())
    def test_long_file_with_a_text_quote_takes_the_fast_path(self, tmp_path, named_read):
        # a quote inside an ignored note is text to the reader, and no field is long
        text = many_rows(10_000).replace("\n", ',a"b\n')
        spec = SeriesFileSpec(write(tmp_path, text.replace(',a"b', ",note", 1)))
        assert os.path.getsize(spec.path) > csv.field_size_limit()
        with mock.patch.object(erp_io, "_NAMED_READ", named_read):
            fast = _parse_iso(spec)
        assert fast is not None
        assert fast == _parse_rows(spec) and hexes(fast) == hexes(_parse_rows(spec))

    @given(body=st.text(alphabet='a,"\n\r', max_size=120), limit=st.integers(1, 12))
    # a run of six bytes with no line break across two blocks of four that
    # each hold one
    @example(body="\naaa\naaaaaa\n", limit=4)
    @settings(max_examples=500, deadline=None)
    def test_fields_fit_only_where_the_reader_takes_every_field(self, body, limit):
        old = csv.field_size_limit(limit)
        try:
            fits = _fields_fit(("h\n" + body).encode(), 2)
            try:
                for _ in csv.reader(StringIO(body, newline="")):
                    pass
                taken = True
            except csv.Error as exc:
                assert "field larger than field limit" in str(exc)
                taken = False
        finally:
            csv.field_size_limit(old)
        # quoted text over the limit is read by the reader itself: exact
        assert fits == taken if '"' in body and len(body) > limit else taken or not fits

    @pytest.mark.parametrize("header", ['date,value,x"y,"z', '"date,value', '"a"b,date,value'])
    def test_header_record_must_end_on_its_first_line(self, tmp_path, header):
        spec = SeriesFileSpec(write(tmp_path, header + "\n2020-01-05,1.0,a,b\n"))
        assert _parse_iso(spec) is None
        assert outcome(parse_series, spec) == outcome(_parse_rows, spec)

    @pytest.mark.parametrize("cell", ['"1\n2"', '"1\r\n2"', '"1\r2"', '"\n1"', '"1\r\n"'])
    @pytest.mark.parametrize("named_read", ROUTES.values(), ids=ROUTES.keys())
    def test_quoted_line_break_in_a_value_stays_in_it(self, tmp_path, cell, named_read):
        spec = SeriesFileSpec(write(tmp_path, f"date,value\n2020-01-05,{cell}\n2020-01-06,3\n"))
        with mock.patch.object(erp_io, "_NAMED_READ", named_read):
            check = outcome(parse_series, spec), _parse_iso(spec)
        expected = outcome(_parse_rows, spec)
        assert check[0] == expected
        assert check[1] is None or check[1] == expected

    def test_lone_carriage_return_ends_a_row_only_by_name(self, tmp_path):
        # numpy's text mode reads a lone "\r" as a line break, as the row
        # loop's reader does; as lines, loadtxt refuses it
        spec = SeriesFileSpec(write(tmp_path, "date,value\n2020-01-05,1.0\r2020-01-06,2.0\n"))
        with mock.patch.object(erp_io, "_NAMED_READ", 0):
            assert _parse_iso(spec) == _parse_rows(spec)
        assert _parse_iso(spec) is None
        assert parse_series(spec) == _parse_rows(spec)

    def test_quoted_line_break_in_a_header_name_is_read_as_lines(self, tmp_path, monkeypatch):
        monkeypatch.setattr(erp_io, "_NAMED_READ", 0)
        sources = loadtxt_sources(monkeypatch)
        spec = SeriesFileSpec(write(tmp_path, '"a\rb",date,value\nx,2020-01-05,1.0\n'))
        assert _parse_iso(spec) == _parse_rows(spec)
        assert len(sources) == 1 and isinstance(sources[0], list)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_is_read_as_lines(self, tmp_path, monkeypatch, suffix):
        # numpy would decompress a file of that name: "Not a gzipped file"
        sources = loadtxt_sources(monkeypatch)
        spec = SeriesFileSpec(write(tmp_path, many_rows(5000), "prices.csv" + suffix))
        assert os.path.getsize(spec.path) >= erp_io._NAMED_READ
        assert outcome(parse_series, spec) == outcome(_parse_rows, spec)
        assert len(sources) == 1 and isinstance(sources[0], list)

    @pytest.mark.parametrize("change", ["rewritten", "replaced"])
    def test_file_changed_by_the_named_read_falls_back(self, tmp_path, monkeypatch, change):
        monkeypatch.setattr(erp_io, "_NAMED_READ", 0)
        path = write(tmp_path, "date,value\n2020-01-05,1.0\n")
        real = np.loadtxt

        def loadtxt(*args, **kwargs):
            table = real(*args, **kwargs)
            if change == "rewritten":
                write(tmp_path, "date,value\n2020-01-06,2.0\n2020-01-07,3.0\n")
            else:
                os.replace(write(tmp_path, "date,value\n2020-01-06,2.0\n", "new.csv"), path)
            return table

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        spec = SeriesFileSpec(path)
        assert _parse_iso(spec) is None
        # the row loop reads the file as it now is, not the bytes read first
        write(tmp_path, "date,value\n2020-01-05,1.0\n")
        got = parse_series(spec)
        monkeypatch.setattr(np, "loadtxt", real)
        assert got == _parse_rows(spec) and got.dates[0] == date(2020, 1, 6)

    def test_bytes_read_are_dropped_before_the_named_read(self, tmp_path, monkeypatch):
        monkeypatch.setattr(erp_io, "_NAMED_READ", 0)
        path = write(tmp_path, many_rows(20000))
        held, real = [], np.loadtxt

        def loadtxt(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            parse_series(SeriesFileSpec(path))
        finally:
            tracemalloc.stop()
        assert len(held) == 1 and held[0] - before < os.path.getsize(path) / 4

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_pipe_is_read_once(self, tmp_path, monkeypatch):
        # as from --prices <(...): a second open would wait for a writer
        # that never comes
        monkeypatch.setattr(erp_io, "_NAMED_READ", 0)
        text = many_rows(5000)
        got = parse_from_fifo(tmp_path, text)
        assert got == [_parse_rows(SeriesFileSpec(write(tmp_path, text, "plain.csv")))]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_fifo_the_fast_path_refuses_is_read_once(self, tmp_path):
        # the row loop reads the bytes the fast path read
        got = parse_from_fifo(tmp_path, "date,value\n2020-01-05,1.0\nbad,2\n")
        assert got == [(BadDateError, f"{tmp_path / 'prices.csv'} line 3: bad date 'bad'")]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd here")
    def test_pipe_the_fast_path_refuses_gives_the_row_loops_error(self):
        # as from bash's <(printf ...): a second open of the pipe would
        # read it empty, so the row loop must take the bytes already read
        read_end, write_end = os.pipe()

        def feed():
            with open(write_end, "wb") as fh:
                fh.write(b"date,value\n2020-01-05,1.0\nbad,2\n")

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        path = f"/dev/fd/{read_end}"
        try:
            got = outcome(parse_series, SeriesFileSpec(path))
        finally:
            feeder.join(timeout=30)
            os.close(read_end)
        assert not feeder.is_alive()
        assert got == (BadDateError, f"{path} line 3: bad date 'bad'")


def parse_from_fifo(tmp_path, text):
    """``[outcome(parse_series, ...)]`` on a named pipe ``prices.csv`` that
    a thread writes ``text`` into once; empty if the parse still waits.  It
    runs in a thread with a time limit, since an open of the pipe after the
    writer's would wait for another writer."""
    fifo = tmp_path / "prices.csv"
    os.mkfifo(fifo)
    got = []

    def feed():
        with open(fifo, "w", encoding="utf-8") as fh:
            fh.write(text)

    threads = [threading.Thread(target=feed, daemon=True),
               threading.Thread(target=lambda: got.append(outcome(parse_series,
                                                                  SeriesFileSpec(str(fifo)))),
                                daemon=True)]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        # end a read still waiting on the pipe
        with contextlib.suppress(OSError):
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    return got


def series_row_loop(path, series, fields):
    """``write_series`` as it wrote through ``write_rows(..., "%r")``: each
    row formatted with ``%``, the file written as UTF-8 text."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_header(fields) + "\n")
        fh.writelines("%s,%r\n" % row
                      for row in zip(series.days.astype(str).tolist(), series.values.tolist()))


# plain header names, ones csv_header must quote, and one beyond ASCII
HEADER_NAMES = st.sampled_from(["date", "value", "a,b", 'say "x"', "x\ry", "x\ny", "bund\u20ac"])


class TestWriteSeries:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_row_loop(self, data):
        n = data.draw(st.integers(1, 30))
        # years from about -25,000 to 29,000: ISO dates of other widths too
        days = sorted(data.draw(st.lists(st.integers(-10 ** 7, 10 ** 7), min_size=n,
                                         max_size=n, unique=True)))
        value = (st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308]))
        values = data.draw(st.lists(value, min_size=n, max_size=n))
        series = DatedSeries(np.array(days, dtype="datetime64[D]"), np.array(values))
        fields = [data.draw(HEADER_NAMES), data.draw(HEADER_NAMES)]
        # blocks of a few rows, so that most series span several
        rows_per_write = data.draw(st.sampled_from([1, 2, 7, _BLOCK]))
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch("erp_lab.timeseries._BLOCK", rows_per_write):
            fast, slow = os.path.join(tmp, "fast.csv"), os.path.join(tmp, "slow.csv")
            write_series(series, fast, *fields)
            series_row_loop(slow, series, fields)
            assert Path(fast).read_bytes() == Path(slow).read_bytes()

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        values = rng.uniform(-1.0, 1.0, 50) * math.pi
        dates = tuple(date(2009, 1, 1 + i) for i in range(25))
        dates = dates + tuple(date(2009, 2, 1 + i) for i in range(25))
        original = DatedSeries(dates, values)
        path = str(tmp_path / "out.csv")
        write_series(original, path)
        back = parse_series(SeriesFileSpec(path))
        assert back.dates == original.dates
        np.testing.assert_array_equal(back.values, original.values)

    def test_header_uses_given_column_names(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_series(DatedSeries((date(2009, 1, 2),), np.array([1.5])),
                     path, date_column="day", value_column="close")
        text = Path(path).read_text(encoding="utf-8")
        assert text == "day,close\n2009-01-02,1.5\n"

    @pytest.mark.parametrize("name", ["a,b", 'say "x"', "x\ry", "x\ny", "bund\u20ac"],
                             ids=["comma", "quote", "carriage-return", "newline", "non-ascii"])
    def test_header_needing_quotes_round_trips(self, tmp_path, name):
        original = DatedSeries((date(2009, 1, 2), date(2009, 1, 5)), np.array([1.5, -0.25]))
        path = str(tmp_path / "out.csv")
        write_series(original, path, value_column=name)
        back = parse_series(SeriesFileSpec(path, value_column=name))
        assert back == original


class TestFormatCell:
    def test_ten_decimals(self):
        assert format_cell(0.01) == "0.0100000000"

    def test_negative(self):
        assert format_cell(-0.0252) == "-0.0252000000"

    def test_rounding(self):
        assert format_cell(1.0 / 3.0) == "0.3333333333"


def fixed_texts(values, fmt):
    """``_fixed``'s texts, read down the columns of its position-major
    ``uint8`` table, with their NUL padding dropped."""
    table = _fixed(np.array(values, dtype=float), fmt)
    assert table.dtype == np.uint8 and table.ndim == 2 and table.shape[1] == len(values)
    return [column.tobytes().replace(b"\0", b"").decode() for column in table.T]


def percent_texts(values, fmt):
    return [fmt % v for v in values]


def ties(decimals):
    """Exact halves at ``decimals`` places: odd multiples of 2**-(decimals + 1),
    as 0.125 at 2 places or 0.00048828125 at 10."""
    return st.integers(-(2 ** 52), 2 ** 52).map(lambda k: (2 * k + 1) * 2.0 ** -(decimals + 1))


def with_neighbours(values):
    """Each value and the floats one ulp either side of it."""
    return st.tuples(values, st.sampled_from([-math.inf, None, math.inf])).map(
        lambda pair: pair[0] if pair[1] is None else float(np.nextafter(pair[0], pair[1])))


def near_limit(decimals):
    """Values whose scaled form is near 2**53, where ``_fixed`` hands over
    to ``%`` and a float product no longer holds every integer, or above
    it up to 20 times it; and near 1e15 and 2**52, inside the digit path,
    where the float product stops holding every half."""
    limit = 2.0 ** 53 / 10 ** decimals
    inside = [1e15 / 10 ** decimals, 2.0 ** 52 / 10 ** decimals]
    return with_neighbours(st.sampled_from([limit, -limit, *inside, *(-v for v in inside)])
                           | st.floats(0.9 * limit, 1.1 * limit)
                           | st.floats(-1.1 * limit, -0.9 * limit)
                           | st.floats(limit, 20 * limit))


class TestFixed:
    """``_fixed`` gives ``%``'s bytes for every float, ties and the
    fallback limit included."""

    @pytest.mark.parametrize("decimals", [1, 2, 10, 15])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_percent(self, decimals, data):
        fmt = f"%.{decimals}f"
        values = data.draw(st.lists(st.one_of(
            st.floats(), st.floats(-1e6, 1e6), with_neighbours(ties(decimals)),
            near_limit(decimals)), max_size=40))
        assert fixed_texts(values, fmt) == percent_texts(values, fmt)

    @pytest.mark.parametrize("fmt, value, text", [
        ("%.2f", 0.125, "0.12"), ("%.2f", 0.375, "0.38"), ("%.2f", -0.125, "-0.12"),
        # float products that land on a half: 0.005 lies above its half, 0.015 below
        ("%.2f", 0.005, "0.01"), ("%.2f", 0.015, "0.01"), ("%.2f", -0.015, "-0.01"),
        ("%.10f", 0.00048828125, "0.0004882812"), ("%.10f", -0.0, "-0.0000000000"),
        ("%.10f", -1e-12, "-0.0000000000"), ("%.10f", 5e-324, "0.0000000000"),
        ("%.10f", math.nan, "nan"), ("%.10f", -math.inf, "-inf"),
        ("%.10f", 1e5, "100000.0000000000"), ("%.2f", 1e300, "%.2f" % 1e300),
        # scaled forms from 1e15 to 2**53: digits, no longer the fallback
        ("%.10f", 212345.6789012345, "212345.6789012345"),
        ("%.10f", -987654.3210987654, "-987654.3210987654"),
        ("%.10f", 899999.99999999995, "900000.0000000000"),
    ])
    def test_known_texts(self, fmt, value, text):
        assert fixed_texts([value], fmt) == [text] == percent_texts([value], fmt)

    @pytest.mark.parametrize("fmt", ["%.2f", "%.10f"])
    def test_empty_array(self, fmt):
        assert fixed_texts([], fmt) == []

    def test_many_values_with_fallbacks_mixed_in(self):
        rng = np.random.default_rng(24)
        values = rng.normal(0.0, 1.0, 20_000) * 10.0 ** rng.integers(-12, 8, 20_000)
        specials = values[::97]
        specials[:] = rng.choice([math.nan, math.inf, -math.inf, -0.0, 0.125, 1e20], specials.size)
        for fmt in ("%.2f", "%.10f"):
            assert fixed_texts(values, fmt) == percent_texts(values.tolist(), fmt)


@st.composite
def position_major_tables(draw):
    """Position-major ``uint8`` tables of one row count, as the formatters
    return them: NUL bytes anywhere, all-NUL cells, and each table either
    C-ordered or a strided column of a 3-d grid, as ``csv_bytes`` passes
    its report columns."""
    n = draw(st.integers(0, 40))
    tables = []
    for _ in range(draw(st.integers(1, 6))):
        width = draw(st.integers(1, 20))
        table = draw(arrays(np.uint8, (width, n), elements=st.just(0) | st.integers(0, 255)))
        table[:, draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0
        depth = draw(st.integers(1, 3))
        if depth > 1:
            grid = np.full((width, n, depth), 255, dtype=np.uint8)
            column = draw(st.integers(0, depth - 1))
            grid[:, :, column] = table
            table = grid[:, :, column]
        tables.append(table)
    return tables


def rows_by_hand(tables, sep, end):
    """Each row's cells with their NULs dropped, joined by ``sep`` and
    ended by ``end``."""
    return b"".join(sep.join(t[:, i].tobytes().replace(b"\0", b"") for t in tables) + end
                    for i in range(tables[0].shape[1]))


class TestRows:
    """``_rows`` is its definition: row by row, cells without their NULs."""

    @given(tables=position_major_tables(),
           sep=st.binary(min_size=1, max_size=4).map(lambda b: b.replace(b"\0", b";")),
           end=st.binary(min_size=1, max_size=4).map(lambda b: b.replace(b"\0", b"|")))
    @settings(max_examples=300, deadline=None)
    def test_matches_rows_by_hand(self, tables, sep, end):
        before = [t.copy() for t in tables]
        assert _rows(tables, sep, end) == rows_by_hand(tables, sep, end)
        assert all(np.array_equal(t, b) for t, b in zip(tables, before))

    def test_known_rows(self):
        dates = np.frombuffer(b"2000-01-01" b"1999-12-31", np.uint8).reshape(2, 10).T
        values = np.array([[0, ord("-")], [ord("1"), ord("2")], [0, 0]], dtype=np.uint8)
        assert _rows([dates, values], b", ", b"\r\n") == b"2000-01-01, 1\r\n1999-12-31, -2\r\n"


def row_loop(path, fields, days, columns):
    """``write_rows`` as it formatted each row with ``%`` alone."""
    row = ",".join(["%s", *[CELL_FORMAT] * len(columns)]) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(fields) + "\n")
        cells = [days.astype(str).tolist(), *(c.tolist() for c in columns)]
        fh.write("".join(map(row.__mod__, zip(*cells))))


class TestWriteRows:
    """``write_rows`` with ``CELL_FORMAT`` writes what the row loop wrote."""

    def check(self, days, columns):
        fields = ["date", *(f"c{i}" for i in range(len(columns)))]
        with tempfile.TemporaryDirectory() as tmp:
            fast, slow = os.path.join(tmp, "fast.csv"), os.path.join(tmp, "slow.csv")
            write_rows(fast, fields, days, columns)
            row_loop(slow, fields, days, columns)
            assert Path(fast).read_bytes() == Path(slow).read_bytes()

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_row_loop(self, data):
        n = data.draw(st.integers(0, 30))
        k = data.draw(st.integers(1, 4))
        cells = st.one_of(st.floats(), with_neighbours(ties(10)), near_limit(10))
        columns = [np.array(data.draw(st.lists(cells, min_size=n, max_size=n)), dtype=float)
                   for _ in range(k)]
        # years from about -25,000 to 29,000: ISO dates of other widths too
        days = np.array(data.draw(st.lists(st.integers(-10 ** 7, 10 ** 7), min_size=n,
                                           max_size=n)), dtype="datetime64[D]")
        self.check(days, columns)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_row_loop_in_years_1_to_9999(self, data):
        # the days whose texts are built from their digits, now and then
        # with one day outside them in the block
        n = data.draw(st.integers(1, 30))
        first, last = (int(np.datetime64(d).view(np.int64))
                       for d in ("0001-01-01", "9999-12-31"))
        day = st.integers(first, last) | st.sampled_from([first, last])
        days = data.draw(st.lists(day, min_size=n, max_size=n))
        if data.draw(st.integers(0, 9)) == 0:
            days[data.draw(st.integers(0, n - 1))] = data.draw(
                st.sampled_from([first - 1, last + 1, -10 ** 7, 10 ** 7]))
        column = np.array(data.draw(st.lists(st.floats(), min_size=n, max_size=n)), dtype=float)
        self.check(np.array(days, dtype="datetime64[D]"), [column])

    @pytest.mark.parametrize("day", ["0001-01-01", "9999-12-31", "2000-02-29", "1900-02-28",
                                     "1900-03-01"])
    def test_known_dates(self, day, tmp_path):
        path = tmp_path / "out.csv"
        write_rows(path, ["date", "v"], np.array([day], dtype="datetime64[D]"), [np.ones(1)])
        assert path.read_text(encoding="utf-8") == f"date,v\n{day},1.0000000000\n"

    def test_block_with_a_day_in_year_10000(self):
        days = np.array(["2000-01-01", "10000-01-01", "9999-12-31", "0001-01-01"],
                        dtype="datetime64[D]")
        self.check(days, [np.arange(4.0)])

    def test_every_day_of_years_1_to_9999(self):
        # every day the digit path writes, a 400-year cycle of days at a time
        days = np.arange(np.datetime64("0001-01-01"), np.datetime64("10000-01-01"))
        for start in range(0, days.size, 146_097):
            block = days[start:start + 146_097]
            table = _iso_days(block)
            assert table.dtype == np.uint8 and table.shape == (10, block.size)
            assert np.array_equal(np.ascontiguousarray(table.T).view("S10")[:, 0],
                                  block.astype("S"))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_month_runs_match_astype(self, data):
        # sorted days 0 to 60 apart (0: a repeated day), so a block spans 1
        # to many months and falls on both sides of _ROWS_PER_MONTH; now and
        # then shuffled, which takes the per-row digits
        n = data.draw(st.integers(1, 300))
        first = data.draw(st.sampled_from(["0001-01-01", "1969-12-15", "2020-02-27",
                                           "9990-01-01"]))
        steps = data.draw(st.lists(st.integers(0, data.draw(st.sampled_from([1, 3, 8, 60]))),
                                   min_size=n, max_size=n))
        days = np.datetime64(first) + np.cumsum(steps)
        days = days[days <= np.datetime64("9999-12-31")]
        if data.draw(st.integers(0, 4)) == 0:
            days = data.draw(st.permutations(days.tolist()))
            days = np.array(days, dtype="datetime64[D]")
        table = _iso_days(days)
        assert table.dtype == np.uint8 and table.shape == (10, days.size)
        assert np.array_equal(np.ascontiguousarray(table.T).view("S10")[:, 0], days.astype("S"))

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_columns_of_other_widths_share_one_call(self, data):
        # over two or three blocks of 1 to 5 columns, each of its own
        # magnitude: the widest sets a block's digit count, and no narrower
        # cell may change; negatives, -0.0, % halves and the fallback past
        # 2**53 / 1e10 mixed in
        n = data.draw(st.integers(_BLOCK + 1, 2 * _BLOCK + 50))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        specials = st.one_of(st.floats(1e-12, 1e5), st.floats(-1e5, -1e-12), st.just(-0.0),
                             ties(10), near_limit(10))
        columns = []
        for _ in range(data.draw(st.integers(1, 5))):
            column = rng.uniform(-1.0, 1.0, n) * 10.0 ** data.draw(st.integers(-12, 5))
            mixed = data.draw(st.lists(specials, max_size=20))
            column[rng.integers(0, n, len(mixed))] = mixed
            columns.append(column)
        self.check(np.datetime64("1990-01-01") + np.arange(n), columns)

    def test_blocks_match_row_loop(self):
        rng = np.random.default_rng(7)
        n = 2 * _BLOCK + 123
        days = np.datetime64("1900-01-01") + np.arange(n)
        columns = [rng.normal(100.0, 30.0, n), rng.normal(0.0, 1e-6, n),
                   (2 * rng.integers(-1000, 1000, n) + 1) * 2.0 ** -11]
        specials = columns[0][::501]
        specials[:] = rng.choice([math.nan, math.inf, -0.0, 1e16, -1e300, 0.5], specials.size)
        self.check(days, columns)
