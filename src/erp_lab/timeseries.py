"""Dated series containers and the transformations the daily pipeline needs.

A :class:`DatedSeries` is the universal carrier for prices, earnings,
yields, and premia: calendar dates paired with float values.  Each series
stores its calendar once, as a ``datetime64[D]`` array (``days``); the
tuple of ``datetime.date`` (``dates``) is rebuilt from it on each access.
No business-day or holiday logic is applied anywhere, and series combine
by exact date intersection.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import date
from itertools import accumulate, chain, repeat
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
_BLOCK = 4096


def _blocks(n: int) -> list[slice]:
    """``range(n)`` as slices of at most ``_BLOCK``: long arrays are
    converted and formatted one block at a time, so that no whole-column
    list or text is held."""
    return [slice(start, start + _BLOCK) for start in range(0, n, _BLOCK)]


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only: how a function hands a series an array
    it has just made, which the series then keeps instead of copying."""
    array.flags.writeable = False
    return array


def _frozen(array) -> bool:
    """Whether ``array`` is a plain read-only ndarray whose memory no
    writeable array owns: each ``base`` up to the owner is one too.  Such
    an array is its owner's promise not to change it, and is kept as given."""
    while type(array) is np.ndarray and not array.flags.writeable:
        if array.base is None:
            return True
        array = array.base
    return False


def _as_days(dates) -> np.ndarray:
    """``dates`` (a ``datetime64`` array or ``date`` iterable) as read-only
    ``datetime64[D]``: a :func:`_frozen` ``datetime64[D]`` array as given,
    any other calendar (a masked array or a read-only view of a writeable
    array included) as a plain copy.  Dates go through their ordinals:
    numpy's own conversion of ``date`` objects is 20x slower."""
    if isinstance(dates, np.ndarray) and dates.dtype.kind == "M":
        days = np.asarray(dates).astype("datetime64[D]", copy=not _frozen(dates))
    else:
        ordinals = np.fromiter((d.toordinal() for d in dates), np.int64)
        # the owner read-only too, so a series keeps this calendar's views
        days = _read_only(ordinals - _EPOCH_ORDINAL).view("datetime64[D]")
    return _read_only(days)


@dataclass(frozen=True, eq=False)
class DatedSeries:
    """Ordered (date, value) observations with strictly increasing dates.

    Invariants enforced at construction: one value per day (``days`` and
    ``values`` one-dimensional, of equal length), non-empty, no NaT,
    dates strictly increasing (hence no duplicates), all values finite.
    ``days`` may be any sequence of ``date`` or a ``datetime64`` array, and
    ``values`` any sequence of numbers.  A ``datetime64[D]`` calendar and
    a native ``float64`` values array are kept as given where
    :func:`_frozen`, taken as their owner's promise not to change them; any
    other input (a masked array, or a read-only view of a writeable array,
    included) is stored as a plain read-only copy.
    """

    days: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        days = _as_days(self.days)
        object.__setattr__(self, "days", days)
        values = self.values
        if not (_frozen(values) and values.dtype == np.float64):
            values = _read_only(np.array(values, dtype=float))
            object.__setattr__(self, "values", values)
        for name, array in (("days", days), ("values", values)):
            if array.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional, got shape {array.shape}")
        if len(days) == 0:
            raise ValueError("series must contain at least one observation")
        ints = days.view(np.int64)  # NaT is its least value: the order check finds it after 0
        if ints[0] == np.iinfo(np.int64).min or not np.all(ints[1:] > ints[:-1]):
            if np.isnat(days).any():
                nat = int(np.argmax(np.isnat(days)))
                raise ValueError(f"dates must not be NaT, got NaT at position {nat}")
            i = int(np.argmax(ints[1:] <= ints[:-1]))
            raise ValueError(f"dates must be strictly increasing: {days[i]} !< {days[i + 1]}")
        if len(days) != len(values):
            raise ValueError("dates and values must have equal length")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite (no NaN or infinity)")

    @property
    def dates(self) -> tuple[date, ...]:
        """The calendar as a tuple of ``datetime.date``."""
        return tuple(self.days.tolist())

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[date, float]]) -> "DatedSeries":
        pairs = list(pairs)
        return cls(tuple(d for d, _ in pairs),
                   _read_only(np.array([v for _, v in pairs], dtype=float)))

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


@dataclass(frozen=True, eq=False)
class ReturnSeries(DatedSeries):
    """Per-period simple returns; each must exceed -1 (prices are positive)."""

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.values <= -1.0):
            raise ValueError("simple returns must be > -1")


def align(a: DatedSeries, b: DatedSeries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair two series over their common dates: ``align_many([a, b])``
    unpacked to ``(days, a_values, b_values)``."""
    days, (a_vals, b_vals) = align_many([a, b])
    return days, a_vals, b_vals


def align_many(series: Sequence[DatedSeries]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Intersect any number of series on their common dates.

    Accepts any mix of :class:`DatedSeries` and :class:`ReturnSeries`.
    Each other series' calendar is searched once for the first series'
    days, and a day is common where every search lands on it.  A series
    holding the first series' own ``days`` array is not searched: the
    common mask picks its values.  Returns the common days
    (``datetime64[D]``, as each series stores them) and one value array
    per input series, all in the same ascending order; the days are
    read-only, so a series built on them keeps them.

    Raises
    ------
    EmptyIntersectionError
        If the series share no dates.
    """
    if not series:
        raise InvalidParametersError("align_many needs at least one series")
    days = series[0].days
    rows = [None if s.days is days else np.searchsorted(s.days, days).clip(max=len(s) - 1)
            for s in series]
    common = np.ones(len(days), dtype=bool)
    for s, r in zip(series, rows):
        if r is not None:
            common &= s.days[r] == days
    if not common.any():
        raise EmptyIntersectionError("series share no common dates")
    # the searched series' values first, so that their lookups are dropped
    # before the others are gathered
    values = [None if r is None else s.values[r[common]] for s, r in zip(series, rows)]
    del rows
    return _read_only(days[common]), [s.values[common] if v is None else v
                                      for s, v in zip(series, values)]


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
    return ReturnSeries(prices.days[1:], _read_only(rets))


def ema(series: DatedSeries, period_days: int) -> DatedSeries:
    """Exponential moving average with smoothing factor 2/(period+1).

    Seeded with the first observation and computed recursively:

        out[0] = in[0]
        out[i] = out[i-1] + alpha * (in[i] - out[i-1])

    The incremental form makes constant inputs exact fixed points.  With
    ``period_days == 1`` the output equals the input.

    The recursion runs as one generator loop on Python floats, converted
    once per run of bit-identical inputs (a step input's runs are few);
    their IEEE operations are numpy's, but they neither warn nor raise.
    So where an output is not finite, or ``np.errstate`` traps underflow,
    it runs again on numpy scalars (one ``itertools.accumulate``), which
    warn or raise as ``np.errstate`` says: the fallback and the definition.
    """
    if period_days < 1:
        raise InvalidParametersError("period_days must be >= 1")
    alpha = 2.0 / (period_days + 1.0)
    values = series.values
    out = np.fromiter(_ema_floats(values, alpha), float, len(values))
    if not np.isfinite(out).all() or np.geterr()["under"] != "ignore":
        out = np.fromiter(accumulate(values, lambda acc, x: acc + alpha * (x - acc)),
                          float, len(values))
    return DatedSeries(series.days, _read_only(out))


def _ema_floats(values: np.ndarray, alpha: float):
    """Yield the recursion of :func:`ema` on Python floats, without a call per
    day, converting one per run of bit-identical values (found on the ``int64``
    view, so ``0.0`` and ``-0.0`` differ), ``_BLOCK`` runs at a time; the first
    output is ``values[0]`` as is."""
    bits = values.view(np.int64)
    ends = np.flatnonzero(np.append(bits[1:] != bits[:-1], True)) + 1
    counts = np.diff(ends, prepend=0)
    floats = chain.from_iterable(chain.from_iterable(
        map(repeat, values[ends[rows] - 1].tolist(), counts[rows].tolist())
        for rows in _blocks(len(ends))))
    acc = next(floats)
    yield acc
    for x in floats:
        acc += alpha * (x - acc)
        yield acc


def step_interpolate(sparse: DatedSeries,
                     calendar: Sequence[date] | np.ndarray) -> DatedSeries:
    """Carry sparse observations forward onto a finer calendar.

    Each calendar date takes the most recent sparse value at or before it
    (last observation carried forward), repeated over the days it holds.
    The calendar (a sequence of ``date`` or a ``datetime64`` array) must be
    non-empty, strictly increasing, and start no earlier than the first.

    Raises
    ------
    CalendarPrecedesDataError
        If a calendar date precedes every sparse observation.
    """
    days = _as_days(calendar)
    if len(days) == 0:
        raise InvalidParametersError("calendar must be non-empty")
    if np.any(days[1:] <= days[:-1]):
        raise InvalidParametersError("calendar must be strictly increasing")
    if days[0] < sparse.days[0]:
        raise CalendarPrecedesDataError(
            f"calendar starts {days[0]}, before first observation {sparse.days[0]}"
        )
    # each sparse value holds from the first calendar day on or after its own
    runs = np.diff(np.searchsorted(days, sparse.days), append=len(days))
    return DatedSeries(days, _read_only(np.repeat(sparse.values, runs)))
