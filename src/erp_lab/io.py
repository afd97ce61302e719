"""CSV ingestion for dated series, and every output file the package writes.

Input files are UTF-8 CSV with a header row (a leading byte-order mark,
as Excel writes, is skipped); columns are looked up by name, dates
parsed against a configurable format (ISO by default), and values
multiplied by a scale factor.  The scale factor is how percent-quoted
yields become decimal fractions (scale 0.01) -- the pipeline's most
dangerous silent-unit bug lives here.
"""

from __future__ import annotations

import csv
import math
import operator
import os
import re
import stat
from dataclasses import dataclass
from datetime import datetime
from io import BytesIO, StringIO, TextIOWrapper
from itertools import accumulate, chain

import numpy as np

from .errors import (
    BadDateError,
    BadValueError,
    DuplicateDateError,
    EmptyInputError,
    MalformedCsvError,
    MissingColumnError,
)
from .timeseries import DatedSeries, _blocks, _read_only

ISO_DATE = "%Y-%m-%d"
_FIRST_DAY = np.datetime64("0001-01-01")
_LAST_DAY = np.datetime64("9999-12-31")
_ISO_ROW = [("day", "S11"), ("value", float)]
# byte i of a date cell lies in [_ISO_LOW[i], _ISO_LOW[i] + _ISO_SPAN[i]]:
# a digit, "-", or the NUL padding after the tenth byte
_ISO_LOW = np.frombuffer(b"0000-00-00\0", dtype=np.uint8)
_ISO_SPAN = np.array([9, 9, 9, 9, 0, 9, 9, 0, 9, 9, 0], dtype=np.uint8)
# rows per month from which _parse_iso and _iso_days cast months, not rows
_ROWS_PER_MONTH = 4
CELL_FORMAT = "%.10f"
# a series file of this many bytes or more is handed to np.loadtxt by name:
# about where that starts to beat the lines route (some 900 daily rows)
_NAMED_READ = 15 << 10
# suffixes whose files np.loadtxt would decompress
_PACKED = (".gz", ".bz2", ".xz", ".lzma")
_FILE_STATE = operator.attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns")
# a byte that is not a line break
_TEXT = re.compile(rb"[^\r\n]")


def format_cell(x: float) -> str:
    """Fixed 10-decimal rendering used in all command output CSVs."""
    return CELL_FORMAT % x


def _fixed(values: np.ndarray, fmt: str) -> np.ndarray:
    """``fmt % v`` for each value ``v`` of a 1-d array, where ``fmt`` is
    ``"%.<d>f"`` with ``d`` from 1 to 15: a position-major ``(width, n)``
    ``uint8`` table, column ``i`` the text of ``v[i]`` padded with NULs.

    The digits of ``|v| * 10**d`` rounded to an integer are taken from
    two eight-digit halves, one digit of every value per step, and only
    as many digits as the largest value has (at least ``d + 1``).  A
    value that is not finite, whose scaled form is ``2**53`` or more, or
    whose scaled form is exactly a half (``0.125`` at two places, or
    ``0.015``, whose float product is ``1.5``) is formatted by ``fmt % v``
    itself: ``%`` is both the fallback and the definition.  Where such a
    text is wider than the digits, the table grows by NUL rows below them.
    """
    values = np.asarray(values, dtype=float)
    decimals = int(fmt[2:-1])
    with np.errstate(over="ignore"):
        scaled = np.abs(values) * 10.0 ** decimals
    slow = ~(scaled < 2.0 ** 53)
    scaled[slow] = 0.0
    rounded = np.rint(scaled)
    # below 2**52 every half is a float and the product rounds monotonically,
    # so a product off the halves rounds to the integer |v| * 10**d rounds
    # to; from 2**52 on every float is an integer, and the product is the
    # exact one rounded half to even, as % rounds it
    slow |= np.abs(scaled - rounded) == 0.5
    texts = np.array([fmt % v for v in values[slow].tolist()], dtype="S")
    digits = max(decimals + 1, len("%d" % rounded.max(initial=0.0)))
    # rows: sign, digits - d integer digits, point, d decimals, NULs to the widest %
    point = digits + 1 - decimals
    text = np.empty((max(digits + 2, texts.itemsize), values.size), dtype=np.uint8)
    places = [row for row in range(digits + 1, 0, -1) if row != point]
    # a quotient below 2**27 that is not whole lies 1e-8 or more below the
    # next whole number, and rounding moves it by at most 2**-27: below
    # 2**53 the floor is exact, and so is the remainder
    high = np.floor(rounded / 1e8)
    _put_digits(text, rounded - high * 1e8, places[:8])
    _put_digits(text, high, places[8:])
    text += ord("0")
    # integer digit row r is the 10**(digits - r) place of rounded; the
    # units digit always shows
    for row in range(1, point - 1):
        text[row][rounded < 10.0 ** (digits - row)] = 0
    text[0] = np.signbit(values) * np.uint8(ord("-"))
    text[point] = ord(".")
    text[digits + 2:] = 0
    if texts.size:
        text[:, slow] = _table(texts.astype(f"S{len(text)}"))
    return text


def _table(texts) -> np.ndarray:
    """Bytes or ASCII ``texts`` as a position-major table, one per column."""
    return np.asarray(texts, dtype="S")[:, None].view(np.uint8).T


def _rows(columns, sep: bytes, end: bytes) -> bytes:
    """Rows of the position-major tables ``columns``, each copied once into
    one row table: ``sep`` between cells, ``end`` after the last, no NULs."""
    sep, end = (np.frombuffer(b, np.uint8)[:, None] for b in (sep, end))
    parts = [part for c in columns for part in (c, sep)][:-1] + [end]
    table = np.empty((columns[0].shape[1], sum(map(len, parts))), dtype=np.uint8)
    for part, stop in zip(parts, accumulate(map(len, parts))):
        table[:, stop - len(part):stop] = part.T
    return table.tobytes().translate(None, b"\0")


def _put_digits(text: np.ndarray, numbers: np.ndarray, rows) -> None:
    """Write the decimal digits of ``numbers``, whole and below ``2**32``,
    into ``text``'s ``rows``, one digit of every number per row, the
    lowest digit first."""
    numbers = numbers.astype(np.uint32)
    for row in rows:
        tens = numbers // 10
        text[row] = numbers - 10 * tens
        numbers = tens


def _iso_days(days: np.ndarray) -> np.ndarray:
    """``days.astype("S")`` of a ``datetime64[D]`` array as a position-major
    ``(10, n)`` table of ``YYYY-MM-DD``: year, month and day from numpy's own
    ``datetime64[M]`` cast (per month if sorted with enough rows), written
    digit by digit as :func:`_fixed` writes its digits.  An array holding a day
    outside 0001-01-01 to 9999-12-31, or of another unit, is ``astype("S")``,
    the fallback and the definition."""
    if days.dtype != _FIRST_DAY.dtype or not np.all((days >= _FIRST_DAY) & (days <= _LAST_DAY)):
        return _table(days.astype("S"))
    text, ints = np.empty((10, days.size), dtype=np.uint8), days.view(np.int64)
    span = days[[0, -1]].astype("datetime64[M]").view(np.int64) if days.size else (0, 0)
    if (span[1] - span[0] + 1) * _ROWS_PER_MONTH <= days.size and np.all(ints[1:] >= ints[:-1]):
        months = np.arange(span[0], span[1] + 1).view("datetime64[M]")
        counts = np.diff(np.searchsorted(days, (months + 1).astype(days.dtype)), prepend=0)
        head = np.empty((7, months.size), dtype=np.uint8)
    else:  # per row: year and month digits go straight into text
        months, head = days.astype("datetime64[M]"), text
    year, month = np.divmod(months.view(np.int64), 12)
    _put_digits(head, year + 1970, [3, 2, 1, 0])
    _put_digits(head, month + 1, [6, 5])
    starts = months.astype(days.dtype).view(np.int64)
    if head is not text:
        text[:7] = np.repeat(head, counts, axis=1)
        starts = np.repeat(starts, counts)
    _put_digits(text, ints + 1 - starts, [9, 8])
    text += ord("0")
    text[4] = text[7] = ord("-")
    return text


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
    where every date cell is exactly the ten ASCII bytes ``YYYY-MM-DD``,
    the file holds no NUL, the header ends on the first line and no field
    exceeds ``csv.field_size_limit()``; any other file, or one that path
    cannot show to give the same series, goes through the row loop
    (:func:`_parse_rows`), which defines what is accepted and every error.

    Raises
    ------
    FileNotFoundError, MissingColumnError, BadDateError, BadValueError,
    DuplicateDateError, EmptyInputError, MalformedCsvError
    """
    read: list[bytes] = []
    if spec.date_format == ISO_DATE:
        series = _parse_iso(spec, read)
        if series is not None:
            return series
    return _parse_rows(spec, *read)


def _parse_iso(spec: SeriesFileSpec, read: list | None = None) -> DatedSeries | None:
    """The series :func:`_parse_rows` would return for an ISO-dated file,
    read in one ``np.loadtxt`` call on the text after the header, or
    ``None`` where any check fails: a missing column, no data row, a NUL
    anywhere, a field the row loop's reader would find too long, a short
    row, an unparseable value, a date cell other than exactly ten ASCII
    bytes ``YYYY-MM-DD`` naming a day from 0001-01-01 to 9999-12-31,
    malformed CSV or UTF-8, or a series :class:`DatedSeries` refuses (a
    duplicate date, a value non-finite in the file or after scaling).

    The file's bytes are read here once, for the checks.  ``loadtxt``
    reads in C chunks only given a file name, so a regular file of
    ``_NAMED_READ`` bytes or more is passed by name (unless numpy would
    decompress it for its suffix), and numpy reads it a second time; the
    result is dropped if the file's identity, size or modification time
    differ from those the first read saw.  That narrows the race with a
    writer but does not close it: a file rewritten in place at the same
    size within one timestamp tick passes, and numpy may then return rows
    these checks never saw.  Any other input, a pipe included, is passed as
    its lines.  Dates are cast once per run of one month (``_ROWS_PER_MONTH``).

    The bytes read are appended to ``read``, if given, for the row loop,
    and dropped from it and from here before a by-name read: that file is
    regular, and the row loop reads it again.
    """
    with open(spec.path, "rb") as fh:
        state = os.fstat(fh.fileno())
        data = fh.read()
    read = [] if read is None else read
    read.append(data)
    start = data.find(b"\n") + 1
    # loadtxt warns on a body of blank lines, and the S dtype drops
    # trailing NULs, so "2020-01-05\0" would read as a date
    if (not start or b"\0" in data or _TEXT.search(data, start) is None
            or not _fields_fit(data, start)):
        return None
    try:
        first = data[:start].decode("utf-8-sig")
        # strict: a quoted name still open at the end of the line is an error
        header = next(csv.reader([first], strict=True))
        if spec.date_column not in header or spec.value_column not in header:
            return None
        source = _source(spec.path, state, data, first)
        if isinstance(source, str):
            del data, read[:]
        # DictReader keeps the last of repeated header names
        last = {name: i for i, name in enumerate(header)}
        table = np.loadtxt(source, dtype=_ISO_ROW, delimiter=",", quotechar='"',
                           comments=None, ndmin=1, skiprows=1, encoding="utf-8-sig",
                           usecols=(last[spec.date_column], last[spec.value_column]))
        if isinstance(source, str) and _FILE_STATE(os.stat(source)) != _FILE_STATE(state):
            return None
        # the date bytes where they lie, the first field of each row
        cells = table.view(np.uint8).reshape(-1, table.itemsize)[:, :_ISO_LOW.size]
        # exactly "YYYY-MM-DD" (unsigned bytes wrap below the low end):
        # strptime reads such a date as numpy does, which refuses month 13
        # or Feb 30; position-major, so numpy's inner loop runs down the rows
        if not np.all(np.subtract(cells.T, _ISO_LOW[:, None], order="C")
                      <= _ISO_SPAN[:, None]):
            return None
        keys = np.ndarray(table.size, np.int64, table, strides=(table.itemsize,))  # YYYY-MM-
        runs = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        if runs.size * _ROWS_PER_MONTH <= table.size:
            months = table["day"][runs].astype("S7").astype("datetime64[M]")
            first = months.astype("datetime64[D]")
            days = np.repeat(first, np.diff(runs, append=table.size))
            day = (cells[:, 8] - 48) * 10 + cells[:, 9] - 49  # day - 1 in uint8: "00" wraps
            if np.any(first + np.maximum.reduceat(day, runs) >= (months + 1).astype(first.dtype)):
                return None
            days += day
        else:
            days = table["day"].astype("datetime64[D]")
        # date's range: a four-digit year can fall below it only as year 0000
        if not np.all(days >= _FIRST_DAY):
            return None
        # Python's float product neither warns nor traps; nor may this one
        with np.errstate(all="ignore"):
            values = table["value"] * float(spec.value_scale)
        if np.any(days[1:] < days[:-1]):  # a file in date order needs no sort
            order = np.argsort(days, kind="stable")
            days, values = days[order], values[order]
        # DatedSeries refuses a repeated date, and a value non-finite in
        # the file or after scaling; the row loop names which
        return DatedSeries(_read_only(days), _read_only(values))
    except (csv.Error, ValueError, OSError):
        return None


def _source(path: str, state: os.stat_result, data: bytes, first: str) -> str | list:
    """What ``np.loadtxt`` reads for the file at ``path`` whose ``fstat``
    is ``state``, whose bytes are ``data`` and whose first line is
    ``first``: its absolute path, or else the lines of its text."""
    # numpy's text mode ends a line at a lone "\r" too, even in quotes
    if (stat.S_ISREG(state.st_mode) and state.st_size >= _NAMED_READ
            and "\r" not in first.rstrip("\r\n")):
        path = os.path.abspath(path)
        if not path.endswith(_PACKED):
            return path
    # lines end at "\n" only (loadtxt refuses a lone "\r" outside quotes)
    # and keep it (loadtxt joins a quoted cell's lines with no break otherwise)
    return StringIO(data.decode("utf-8-sig")).readlines()


def _fields_fit(data: bytes, start: int) -> bool:
    """Whether the row loop's reader takes every CSV field of
    ``data[start:]``, the text after the header line: none may hold more
    than ``csv.field_size_limit()`` characters.  ``False`` where that is
    not shown.

    Without a quote, a field lies in a run of bytes free of ``"\n"``, and
    once every block of half the limit holds a ``"\n"``, no such run is
    as long as two blocks.  With quotes, that reader reads the text.
    """
    limit = csv.field_size_limit()
    if len(data) - start <= limit:
        return True
    if data.find(b'"', start) < 0:
        block = max(limit // 2, 1)
        return all(data.find(b"\n", i, i + block) >= 0
                   for i in range(start, len(data) - block + 1, block))
    with TextIOWrapper(BytesIO(data), encoding="utf-8", newline="") as text:
        text.seek(start)
        try:
            for _ in csv.reader(text):
                pass
        except (csv.Error, UnicodeDecodeError):
            return False
    return True


def _parse_rows(spec: SeriesFileSpec, data: bytes | None = None) -> DatedSeries:
    """:func:`parse_series` one row at a time, for any ``date_format``, on
    ``data``, the file's bytes, or else on the file, read once here.  The
    text is decoded in the chunks ``open`` would decode, so an undecodable
    byte is met after the same rows."""
    if data is None:
        with open(spec.path, "rb") as fh:
            data = fh.read()
    observations: dict = {}
    with TextIOWrapper(BytesIO(data), encoding="utf-8-sig", newline="") as fh:
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
        except UnicodeDecodeError as exc:  # the decoder reads ahead: no line is known
            raise MalformedCsvError(f"{spec.path}: {exc}") from exc
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


def write_bytes(path, chunks) -> None:
    """Write the ``bytes`` of ``chunks`` to ``path`` in order: the one
    place the package opens an output file."""
    with open(path, "wb") as fh:
        fh.writelines(chunks)


def write_rows(path, fields, days, columns) -> None:
    """Write ISO dates and value columns as CSV under the header ``fields``,
    each value rendered with ``CELL_FORMAT``.  Rows are formatted a fixed
    number at a time, a block's columns at once (:func:`_fixed`), so that
    no whole-column list or whole-file text is held."""
    blocks = (_rows([_iso_days(days[rows]), *(_fixed(c[rows], CELL_FORMAT) for c in columns)],
                    b",", b"\n")
              for rows in _blocks(len(days)))
    write_bytes(path, chain([csv_header(fields).encode() + b"\n"], blocks))


def write_series(series: DatedSeries, path: str, date_column: str = "date",
                 value_column: str = "value") -> None:
    """Write a series as CSV with full-precision (round-trippable) values.

    ``parse_series`` on the result with default settings reproduces the
    series exactly.
    """
    days, values = series.days, series.values
    blocks = (_rows([_iso_days(days[rows]), _table(list(map(repr, values[rows].tolist())))],
                    b",", b"\n")
              for rows in _blocks(len(days)))
    write_bytes(path, chain([csv_header([date_column, value_column]).encode() + b"\n"], blocks))
