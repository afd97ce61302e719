"""Dated series containers and the transformations the daily pipeline needs.

A :class:`DatedSeries` is the universal carrier for prices, earnings,
yields, and premia: calendar dates paired with float values.  Each series
stores its calendar once, as a ``datetime64[D]`` array (``days``); the
tuple of ``datetime.date`` (``dates``) is rebuilt from it on each access.
No business-day or holiday logic is applied anywhere, and series combine
by exact date intersection.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, fields
from datetime import date
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CalendarPrecedesDataError,
    EmptyIntersectionError,
    InvalidParametersError,
    NonPositivePriceError,
    TooShortError,
)

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def _as_days(dates) -> np.ndarray:
    """``dates`` (a ``datetime64`` array or ``date`` iterable) as a fresh
    read-only ``datetime64[D]`` array.  Dates go through their ordinals:
    numpy's own conversion of ``date`` objects is about twenty times slower.
    """
    if isinstance(dates, np.ndarray) and dates.dtype.kind == "M":
        days = dates.astype("datetime64[D]")
    else:
        ordinals = np.fromiter((d.toordinal() for d in dates), np.int64)
        days = (ordinals - _EPOCH_ORDINAL).view("datetime64[D]")
    days.flags.writeable = False
    return days


@dataclass(frozen=True, eq=False)
class DatedSeries:
    """Ordered (date, value) observations with strictly increasing dates.

    Invariants enforced at construction: non-empty, dates strictly
    increasing (hence no duplicates), all values finite.  ``dates`` may be
    given as any sequence of ``date`` or as a ``datetime64`` array; it is
    stored only as ``days``.  The value array and ``days`` are read-only
    after construction.
    """

    dates: InitVar[Sequence[date] | np.ndarray]
    values: np.ndarray
    days: np.ndarray = field(init=False)

    def __post_init__(self, dates):
        days = _as_days(dates)
        object.__setattr__(self, "days", days)
        values = np.array(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if len(days) == 0:
            raise ValueError("series must contain at least one observation")
        bad = np.flatnonzero(np.diff(days) <= np.timedelta64(0, "D"))
        if bad.size:
            a, b = days[bad[0]], days[bad[0] + 1]
            raise ValueError(f"dates must be strictly increasing: {a} !< {b}")
        if len(days) != len(values):
            raise ValueError("dates and values must have equal length")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite (no NaN or infinity)")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[date, float]]) -> "DatedSeries":
        pairs = list(pairs)
        return cls(tuple(d for d, _ in pairs), np.array([v for _, v in pairs], dtype=float))

    def as_pairs(self) -> list[tuple[date, float]]:
        return [(d, float(v)) for d, v in zip(self.dates, self.values)]

    def __len__(self) -> int:
        return len(self.days)

    def __eq__(self, other):
        # Field by field: the generated ``==`` would ask a numpy array for
        # one truth value, which fails for more than one element.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


# Attached after the class body: inside it, ``dates`` is the constructor's
# InitVar, and a property there would become that argument's default.
DatedSeries.dates = property(lambda self: tuple(self.days.tolist()),
                             doc="The calendar as a tuple of ``datetime.date``.")


@dataclass(frozen=True, eq=False)
class ReturnSeries(DatedSeries):
    """Per-period simple returns; each must exceed -1 (prices are positive)."""

    def __post_init__(self, dates):
        super().__post_init__(dates)
        if np.any(self.values <= -1.0):
            raise ValueError("simple returns must be > -1")


def align(a: DatedSeries, b: DatedSeries) -> tuple[tuple[date, ...], np.ndarray, np.ndarray]:
    """Pair two series over their common dates: ``align_many([a, b])``
    unpacked to ``(dates, a_values, b_values)``."""
    dates, (a_vals, b_vals) = align_many([a, b])
    return dates, a_vals, b_vals


def align_many(series: Sequence[DatedSeries]) -> tuple[tuple[date, ...], list[np.ndarray]]:
    """Intersect any number of series on their common dates.

    Accepts any mix of :class:`DatedSeries` and :class:`ReturnSeries`.
    Returns the common dates and one value array per input series, all in
    the same ascending order: :func:`align_days` with the dates as
    ``datetime.date``.

    Raises
    ------
    EmptyIntersectionError
        If the series share no dates.
    """
    days, columns = align_days(series)
    return tuple(days.tolist()), columns


def align_days(series: Sequence[DatedSeries]) -> tuple[np.ndarray, list[np.ndarray]]:
    """:func:`align_many` with the common dates as a ``datetime64[D]`` array.

    Internal; the package root does not export it.
    """
    if not series:
        raise InvalidParametersError("align_many needs at least one series")
    common = series[0].days
    for s in series[1:]:
        common = np.intersect1d(common, s.days, assume_unique=True)
    if len(common) == 0:
        raise EmptyIntersectionError("series share no common dates")
    columns = [s.values[np.searchsorted(s.days, common)] for s in series]
    return common, columns


def simple_returns(prices: DatedSeries) -> ReturnSeries:
    """Per-period simple returns ``p[i+1]/p[i] - 1``, dated at the later day.

    All prices must be positive and the series needs at least two
    observations.
    """
    if len(prices) < 2:
        raise TooShortError("need at least two prices to form a return")
    if np.any(prices.values <= 0.0):
        bad = prices.days[int(np.argmax(prices.values <= 0.0))]
        raise NonPositivePriceError(f"non-positive price at {bad}")
    rets = prices.values[1:] / prices.values[:-1] - 1.0
    return ReturnSeries(prices.days[1:], rets)


def ema(series: DatedSeries, period_days: int) -> DatedSeries:
    """Exponential moving average with smoothing factor 2/(period+1).

    Seeded with the first observation and computed recursively:

        out[0] = in[0]
        out[i] = out[i-1] + alpha * (in[i] - out[i-1])

    The incremental form makes constant inputs exact fixed points.  With
    ``period_days == 1`` the output equals the input.
    """
    if period_days < 1:
        raise InvalidParametersError("period_days must be >= 1")
    alpha = 2.0 / (period_days + 1.0)
    out = np.empty_like(series.values)
    acc = series.values[0]
    out[0] = acc
    for i in range(1, len(out)):
        acc = acc + alpha * (series.values[i] - acc)
        out[i] = acc
    return DatedSeries(series.days, out)


def step_interpolate(sparse: DatedSeries,
                     calendar: Sequence[date] | np.ndarray) -> DatedSeries:
    """Carry sparse observations forward onto a finer calendar.

    Each calendar date takes the most recent sparse value at or before it
    (last observation carried forward).  The calendar (a sequence of
    ``date`` or a ``datetime64`` array) must be non-empty, strictly
    increasing, and start no earlier than the first sparse date.

    Raises
    ------
    CalendarPrecedesDataError
        If a calendar date precedes every sparse observation.
    """
    days = _as_days(calendar)
    if len(days) == 0:
        raise InvalidParametersError("calendar must be non-empty")
    if np.any(np.diff(days) <= np.timedelta64(0, "D")):
        raise InvalidParametersError("calendar must be strictly increasing")
    if days[0] < sparse.days[0]:
        raise CalendarPrecedesDataError(
            f"calendar starts {days[0]}, before first observation {sparse.days[0]}"
        )
    latest = np.searchsorted(sparse.days, days, side="right") - 1
    return DatedSeries(days, sparse.values[latest])
