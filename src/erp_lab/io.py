"""CSV ingestion and emission for dated series.

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


def format_cell(x: float) -> str:
    """Fixed 10-decimal rendering used in all command output CSVs."""
    return f"{x:.10f}"


@dataclass(frozen=True)
class SeriesFileSpec:
    """Where and how to read one dated series from a CSV file."""

    path: str
    date_column: str = "date"
    value_column: str = "value"
    date_format: str = ISO_DATE
    value_scale: float = 1.0

    def __post_init__(self):
        if self.value_scale <= 0:
            raise ValueError(f"{self.path}: value_scale must be positive, got {self.value_scale}")


def parse_series(spec: SeriesFileSpec) -> DatedSeries:
    """Read a CSV file into a :class:`DatedSeries`.

    Rows are scaled by ``value_scale`` and sorted ascending by date.
    Duplicate dates, unparseable dates, and blank or non-numeric values
    are errors; date/value problems carry the offending line number.

    Raises
    ------
    FileNotFoundError, MissingColumnError, BadDateError, BadValueError,
    DuplicateDateError, EmptyInputError, MalformedCsvError
    """
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


def write_series(series: DatedSeries, path: str, date_column: str = "date",
                 value_column: str = "value") -> None:
    """Write a series as CSV with full-precision (round-trippable) values.

    ``parse_series`` on the result with default settings reproduces the
    series exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([date_column, value_column])
        for day, value in series.as_pairs():
            writer.writerow([day.isoformat(), repr(value)])
