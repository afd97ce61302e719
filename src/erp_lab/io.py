"""CSV ingestion for dated series, and every output file the package writes.

Input files are UTF-8 CSV with a header row; columns are looked up by
name, dates parsed against a configurable format (ISO by default), and
values multiplied by a scale factor.  The scale factor is how
percent-quoted yields become decimal fractions (scale 0.01) -- the
pipeline's most dangerous silent-unit bug lives here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime
from io import StringIO

import numpy as np

from .errors import (
    BadDateError,
    BadValueError,
    DuplicateDateError,
    EmptyInputError,
    MalformedCsvError,
    MissingColumnError,
)
from .timeseries import DatedSeries

ISO_DATE = "%Y-%m-%d"
_FIRST_DAY = np.datetime64("0001-01-01")
_ISO_ROW = [("day", "S11"), ("value", float)]
# byte i of a date cell lies in [_ISO_LOW[i], _ISO_LOW[i] + _ISO_SPAN[i]]:
# a digit, "-", or the NUL padding after the tenth byte
_ISO_LOW = np.frombuffer(b"0000-00-00\0", dtype=np.uint8)
_ISO_SPAN = np.array([9, 9, 9, 9, 0, 9, 9, 0, 9, 9, 0], dtype=np.uint8)
CELL_FORMAT = "%.10f"
_ROWS_PER_WRITE = 4096


def format_cell(x: float) -> str:
    """Fixed 10-decimal rendering used in all command output CSVs."""
    return CELL_FORMAT % x


@dataclass(frozen=True)
class SeriesFileSpec:
    """Where and how to read one dated series from a CSV file."""

    path: str
    date_column: str = "date"
    value_column: str = "value"
    date_format: str = ISO_DATE
    value_scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.value_scale < math.inf:
            raise ValueError(f"{self.path}: value_scale must be positive and finite, "
                             f"got {self.value_scale}")


def parse_series(spec: SeriesFileSpec) -> DatedSeries:
    """Read a CSV file into a :class:`DatedSeries`.

    Rows are scaled by ``value_scale`` and sorted ascending by date.
    Duplicate dates, unparseable dates, and blank or non-numeric values
    are errors; date/value problems carry the offending line number.

    ISO-dated files are read by numpy's C tokenizer (:func:`_parse_iso`)
    where every date cell is exactly the ten ASCII bytes ``YYYY-MM-DD``
    and the text after the header holds no NUL; any other file, or one
    that path cannot show to give the same series, goes through the row
    loop (:func:`_parse_rows`), which defines what is accepted and every
    error.

    Raises
    ------
    FileNotFoundError, MissingColumnError, BadDateError, BadValueError,
    DuplicateDateError, EmptyInputError, MalformedCsvError
    """
    if spec.date_format == ISO_DATE:
        series = _parse_iso(spec)
        if series is not None:
            return series
    return _parse_rows(spec)


def _parse_iso(spec: SeriesFileSpec) -> DatedSeries | None:
    """The series :func:`_parse_rows` would return for an ISO-dated file,
    read in one ``np.loadtxt`` call on the text after the header, or
    ``None`` where any check fails: a missing column, no data row, a NUL
    anywhere after the header, a short row, an unparseable or non-finite
    value, a date cell other than exactly ten ASCII bytes ``YYYY-MM-DD``
    naming a day from 0001-01-01 to 9999-12-31, a duplicate date, a
    scaled value out of float range, malformed CSV or UTF-8.
    """
    try:
        with open(spec.path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), [])
            body = fh.read()
    except (csv.Error, ValueError):
        return None
    # loadtxt warns on a body of blank lines, and the S dtype drops
    # trailing NULs, so "2020-01-05\0" would read as a date
    if (spec.date_column not in header or spec.value_column not in header
            or not body.strip("\r\n") or "\0" in body):
        return None
    # DictReader keeps the last of repeated header names
    last = {name: i for i, name in enumerate(header)}
    try:
        # lines end at "\n" only: loadtxt refuses a lone "\r" outside quotes
        table = np.loadtxt(StringIO(body), dtype=_ISO_ROW, delimiter=",", quotechar='"',
                           comments=None, ndmin=1,
                           usecols=(last[spec.date_column], last[spec.value_column]))
        cells = np.ascontiguousarray(table["day"]).view(np.uint8).reshape(-1, _ISO_LOW.size)
        # exactly "YYYY-MM-DD" (unsigned bytes wrap below the low end):
        # strptime reads such a date as numpy does, which refuses month 13
        # or Feb 30
        if not np.all(cells - _ISO_LOW <= _ISO_SPAN):
            return None
        days = table["day"].astype("datetime64[D]")
    except ValueError:
        return None
    values = table["value"]
    # date's range: a four-digit year can fall below it only as year 0000
    if not np.all(days >= _FIRST_DAY):
        return None
    order = np.argsort(days, kind="stable")
    days, values = days[order], values[order]
    if np.any(np.diff(days) <= np.timedelta64(0, "D")):
        return None
    # Python's float product neither warns nor traps; nor may this one
    with np.errstate(all="ignore"):
        values = values * float(spec.value_scale)
    # also a non-finite value in the file: a positive finite scale keeps it so
    if not np.all(np.isfinite(values)):
        return None
    return DatedSeries(days, values)


def _parse_rows(spec: SeriesFileSpec) -> DatedSeries:
    """:func:`parse_series` one row at a time, for any ``date_format``."""
    observations: dict = {}
    with open(spec.path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or []
            for column in (spec.date_column, spec.value_column):
                if column not in header:
                    raise MissingColumnError(
                        f"{spec.path}: column {column!r} not in header {header}"
                    )
            for row in reader:
                line = reader.line_num
                raw_date = (row.get(spec.date_column) or "").strip()
                try:
                    day = datetime.strptime(raw_date, spec.date_format).date()
                except ValueError as exc:
                    raise BadDateError(f"{spec.path} line {line}: bad date {raw_date!r}") from exc
                raw_value = (row.get(spec.value_column) or "").strip()
                try:
                    value = float(raw_value)
                except ValueError as exc:
                    raise BadValueError(
                        f"{spec.path} line {line}: bad value {raw_value!r}"
                    ) from exc
                if not math.isfinite(value):
                    raise BadValueError(f"{spec.path} line {line}: non-finite value {raw_value!r}")
                if day in observations:
                    raise DuplicateDateError(f"{spec.path}: duplicate date {day}")
                observations[day] = value * spec.value_scale
        except csv.Error as exc:
            # DictReader.line_num only advances after a row parses; its
            # underlying reader has counted the line that failed.
            line = reader.reader.line_num
            raise MalformedCsvError(f"{spec.path} line {line}: {exc}") from exc
    if not observations:
        raise EmptyInputError(f"{spec.path}: no data rows")
    return DatedSeries.from_pairs(sorted(observations.items()))


def csv_header(fields) -> str:
    """One CSV header line, without its line break.  A field holding a
    comma, quote or line break is quoted."""
    line = StringIO()
    # with "\r\n" as terminator the writer quotes a bare "\r" too
    csv.writer(line, lineterminator="\r\n").writerow(fields)
    return line.getvalue()[:-2]


def write_rows(path, fields, days, columns, cell: str = CELL_FORMAT) -> None:
    """Write ISO dates and value columns as CSV under the header ``fields``,
    each value rendered with the %-format ``cell``.  Rows are formatted a
    fixed number at a time, so that no whole-column list or whole-file
    string is held."""
    row = ",".join(["%s", *[cell] * len(columns)]) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_header(fields) + "\n")
        for start in range(0, len(days), _ROWS_PER_WRITE):
            rows = slice(start, start + _ROWS_PER_WRITE)
            cells = [days[rows].astype(str).tolist(), *(c[rows].tolist() for c in columns)]
            fh.write("".join(map(row.__mod__, zip(*cells))))


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8, line endings as they are."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_series(series: DatedSeries, path: str, date_column: str = "date",
                 value_column: str = "value") -> None:
    """Write a series as CSV with full-precision (round-trippable) values.

    ``parse_series`` on the result with default settings reproduces the
    series exactly.
    """
    write_rows(path, [date_column, value_column], series.days, [series.values], "%r")
