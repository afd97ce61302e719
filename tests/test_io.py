"""Tests for CSV parsing, writing, and cell formatting."""

import math
import os
import tempfile
import warnings
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erp_lab.errors import (
    BadDateError,
    BadValueError,
    DuplicateDateError,
    EmptyInputError,
    MissingColumnError,
)
from erp_lab.io import (
    SeriesFileSpec,
    _parse_iso,
    _parse_rows,
    format_cell,
    parse_series,
    write_series,
)
from erp_lab.timeseries import DatedSeries


def write(tmp_path, text, name="in.csv"):
    p = tmp_path / name
    p.write_text(text)
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
              "\u0660\u0661-\u0660\u0665", "2020-01-05\x00", "2020-02-30", "today", ""]
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
HEADERS = st.sampled_from([["date", "value"], ["value", "date"], ["date", "value", "date"],
                           ["value", "date", "value"], ["x", "date", "value", "y"],
                           ["date"], ["day", "value"]])
HEADERS_OF_BOTH = st.sampled_from([["date", "value"], ["value", "date"], ["date", "value", "date"],
                                   ["value", "date", "value"], ["x", "date", "value", "y"]])


@st.composite
def series_text(draw):
    """Text of a small series file: header shapes DictReader resolves in its
    own way (repeated names keep the last), short, blank and whitespace-only
    rows, repeated and unsorted dates, quoted and padded cells, quoted line
    breaks, and the date and value traps."""
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
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(st.sampled_from(cells[name][1])).format(draw(cells[name][0]))
               if name in cells else draw(UNUSED_CELLS) for name in header]
        if traps and draw(st.integers(0, 9)) == 0:
            row = row[:draw(st.integers(0, len(row) - 1))]  # short, or blank
        lines.append(",".join(row))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(strays)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + newline


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

    @given(text=series_text(), scale=st.sampled_from([1.0, 10.0, 0.01, 1e-300, 1e300]))
    @settings(max_examples=300, deadline=None)
    def test_matches_row_loop(self, text, scale):
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

    @pytest.mark.parametrize("body", ["", " \n"], ids=["header-only", "whitespace-line"])
    def test_no_data_rows_raise_no_warning(self, tmp_path, body):
        spec = SeriesFileSpec(write(tmp_path, "date,value\n" + body))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = outcome(parse_series, spec)
        assert [str(w.message) for w in caught] == []
        assert got == outcome(_parse_rows, spec)
        assert got[0] is (EmptyInputError if not body else BadDateError)


class TestWriteSeries:
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
        text = Path(path).read_text()
        assert text == "day,close\n2009-01-02,1.5\n"

    @pytest.mark.parametrize("name", ["a,b", 'say "x"', "x\ry", "x\ny"],
                             ids=["comma", "quote", "carriage-return", "newline"])
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
