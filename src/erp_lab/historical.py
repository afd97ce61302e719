"""Historical premium estimation over configurable windows.

The premium is measured against a chosen riskfree instrument over an
inclusive calendar-year window.  Estimates average each leg with the
chosen scheme and then difference (average-then-difference); for the
arithmetic scheme this coincides with differencing first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .averaging import AveragingMethod, _blend
from .errors import (
    DataError,
    EmptyInputError,
    EmptyIntersectionError,
    EmptyWindowError,
    HorizonExceedsSampleError,
)
from .io import CELL_FORMAT, _fixed, _rows, _table, csv_header
from .timeseries import DatedSeries, ReturnSeries, _read_only, align

YearWindow = tuple[int, int]
_ARITHMETIC, _GEOMETRIC = AveragingMethod.arithmetic(), AveragingMethod.geometric()


@dataclass(frozen=True)
class ErpEstimate:
    """One premium estimate with full provenance.

    ``premium`` is a decimal fraction and may be negative; ``window`` is
    an inclusive (start_year, end_year) pair; ``sample_size`` counts the
    aligned periods the averages ran over.
    """

    premium: float
    window: YearWindow
    riskfree_label: str
    method: AveragingMethod
    sample_size: int

    def __post_init__(self):
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        _check_window(self.window)


def _check_window(window: YearWindow) -> None:
    if window[0] > window[1]:
        raise ValueError(f"window start {window[0]} after end {window[1]}")


def premium_series(equity: ReturnSeries, riskfree: ReturnSeries) -> DatedSeries:
    """Per-date excess return: equity minus riskfree on common dates.

    An excess return is a difference, not the simple return of a positive
    price, so it may be -1 or lower; it is a plain :class:`DatedSeries`.

    A uniform shift applied to both inputs (inflation moving every
    nominal return) cancels in the subtraction, so the premium does not
    depend on working in nominal or real terms.
    """
    days, eq, rf = align(equity, riskfree)
    return DatedSeries(days, _read_only(eq - rf))


def historical_erp(
    equity: ReturnSeries,
    riskfree: ReturnSeries,
    window: YearWindow,
    method: AveragingMethod,
    riskfree_label: str = "riskfree",
) -> ErpEstimate:
    """Premium over an inclusive year window under one averaging scheme:
    the one cell of a 1 x 1 :func:`erp_report`.

    Both series are paired on common dates, restricted to observations
    whose year falls inside the window, averaged per leg with ``method``,
    and differenced.  Under arithmetic or exponential weighting the
    estimate is exactly invariant to a uniform shift of both legs;
    under geometric averaging only approximately so.

    Raises
    ------
    ValueError
        The window starts after it ends.
    EmptyIntersectionError
        The series share no dates at all.
    EmptyWindowError
        No common observation falls inside the window.
    HorizonExceedsSampleError
        A ``blume`` horizon exceeds the window's sample.
    """
    report = erp_report(equity, [(riskfree_label, riskfree)], [window], [method])
    if (0, 0) in report.gaps:
        raise report.gaps[0, 0]
    return report.cells[0][0].estimate


def _years(days: np.ndarray) -> np.ndarray:
    """The calendar year of each ``datetime64[D]`` day."""
    return days.astype("datetime64[Y]").astype(np.int64) + 1970


@dataclass(frozen=True)
class ReportCell:
    """One report cell: an estimate, or a flagged gap with a reason."""

    estimate: ErpEstimate | None
    note: str = ""

    @property
    def missing(self) -> bool:
        return self.estimate is None


@dataclass(frozen=True, eq=False)
class ErpReport:
    """Grid of premium estimates: windows down, (riskfree x method) across.

    ``premium`` and ``sample_size`` (the aligned periods in each window)
    are windows x columns arrays.  A cell is missing exactly when ``gaps``
    maps its ``(window_index, column_index)`` to the :class:`DataError`
    that explains it; its premium is then NaN, as a filled one may be too.
    """

    windows: tuple[YearWindow, ...]
    columns: tuple[tuple[str, AveragingMethod], ...]
    premium: np.ndarray
    sample_size: np.ndarray
    gaps: dict[tuple[int, int], DataError]

    @cached_property
    def cells(self) -> tuple[tuple[ReportCell, ...], ...]:
        """The grid as one :class:`ReportCell` per cell, built on first access."""
        premium, sample_size = self.premium.tolist(), self.sample_size.tolist()
        return tuple(tuple(
            ReportCell(None, note=str(self.gaps[i, j])) if (i, j) in self.gaps else
            ReportCell(ErpEstimate(premium[i][j], window, label, method, sample_size[i][j]))
            for j, (label, method) in enumerate(self.columns))
            for i, window in enumerate(self.windows))

    def __eq__(self, other):
        return isinstance(other, ErpReport) and ((self.windows, self.columns, self.cells)
                                                 == (other.windows, other.columns, other.cells))

    def column_labels(self) -> list[str]:
        return [_column_label(*column) for column in self.columns]

    def window_labels(self) -> list[str]:
        return [_window_label(window) for window in self.windows]

    def to_csv(self) -> str:
        """:meth:`csv_bytes` as text."""
        return self.csv_bytes().decode()

    def csv_bytes(self) -> bytes:
        """The report as UTF-8 CSV: one row per window; missing cells render
        as NA.  A header field holding a comma, quote or line break is quoted."""
        grid = _fixed(self.premium.ravel(), CELL_FORMAT).reshape(-1, *self.premium.shape)
        # a gap reads NA, a filled NaN cell nan
        for i, j in self.gaps:
            grid[:, i, j] = np.frombuffer(b"NA".ljust(len(grid), b"\0"), np.uint8)
        body = _rows([_table(self.window_labels()), *grid.transpose(2, 0, 1)], b",", b"\n")
        return (csv_header(["window", *self.column_labels()]) + "\n").encode() + body


def _column_label(label: str, method: AveragingMethod) -> str:
    return f"{label} {method.label}"


def _window_label(window: YearWindow) -> str:
    return "%s-%s" % window


def report_columns(labels: list[str], methods: list[AveragingMethod]
                   ) -> tuple[tuple[str, AveragingMethod], ...]:
    """The report's ``(riskfree label, method)`` columns, label-major.
    Raises :class:`DataError` if two columns would share one header label."""
    columns = tuple((label, method) for label in labels for method in methods)
    seen = set()
    for label, method in columns:
        column = _column_label(label, method)
        if column in seen:
            raise DataError(f"report column {column!r} appears more than once")
        seen.add(column)
    return columns


def erp_report(
    equity: ReturnSeries,
    riskfree_variants: list[tuple[str, ReturnSeries]],
    windows: list[YearWindow],
    methods: list[AveragingMethod],
) -> ErpReport:
    """Cartesian grid of estimates over windows, instruments, and methods.

    Cells whose window holds no data, or fewer returns than a ``blume``
    horizon, are flagged with the reason instead of failing the whole
    report: the report is a diagnostic artifact.  Each riskfree variant
    is aligned with the equity series once; a window's observations are
    the aligned rows whose year lies inside it.  Variants aligned on the
    same days share one equity leg, and the windows with the same row
    count share one stack of the equity leg and every variant on its days:
    each underlying mean once per stack, ``blume`` blended from them.

    Raises ``ValueError`` for a window that starts after it ends, before
    any series is aligned.
    """
    if not riskfree_variants or not windows or not methods:
        raise EmptyInputError("need at least one riskfree variant, window, and method")
    windows = tuple(map(tuple, windows))
    for window in windows:
        _check_window(window)
    columns = report_columns([label for label, _ in riskfree_variants], methods)
    premium = np.full((len(windows), len(columns)), np.nan)
    sample_size = np.zeros(premium.shape, dtype=np.int64)
    gaps: dict[tuple[int, int], DataError] = {}

    def gap(at_windows, at_columns, exc: DataError) -> None:
        exc = exc.with_traceback(None)
        gaps.update(((i, c), exc) for i in at_windows for c in at_columns)

    starts, ends = zip(*windows)
    # (days, equity leg, [(first column, riskfree leg), ...]) keyed on the
    # days: equal days, not equal years, as several rows a year share years
    calendars: dict[bytes, tuple[np.ndarray, np.ndarray, list[tuple[int, np.ndarray]]]] = {}
    for v, (_, riskfree) in enumerate(riskfree_variants):
        first_column = v * len(methods)
        try:
            days, eq, rf = align(equity, riskfree)
        except EmptyIntersectionError as exc:
            gap(range(len(windows)), range(first_column, first_column + len(methods)), exc)
            continue
        calendars.setdefault(days.tobytes(), (days, eq, []))[2].append((first_column, rf))
    for days, eq, members in calendars.values():
        years = _years(days)
        first = np.searchsorted(years, starts, side="left")
        lengths = np.searchsorted(years, ends, side="right") - first
        member_columns = [c + m for c, _ in members for m in range(len(methods))]
        sample_size[:, member_columns] = lengths[:, None]
        averages = np.full((len(windows), 1 + len(members), len(methods)), np.nan)  # gaps NaN
        for n in sorted(set(lengths.tolist())):
            group = np.flatnonzero(lengths == n)
            if n == 0:
                for i in group.tolist():
                    gap([i], member_columns, EmptyWindowError(
                        "no aligned observations in " + _window_label(windows[i])))
                continue
            rows = first[group, None] + np.arange(n)
            # one concatenate of C-ordered parts keeps each row's reduction order
            stack = np.concatenate([eq[rows], *(leg[rows] for _, leg in members)])
            average = cache(lambda method: method.apply(stack))  # each mean once a stack
            for m, method in enumerate(methods):
                try:
                    mean = (_blend(n, method.horizon, lambda: average(_ARITHMETIC),
                                   lambda: average(_GEOMETRIC))
                            if method.kind == "blume" else average(method))
                    averages[group, :, m] = mean.reshape(-1, len(group)).T
                except HorizonExceedsSampleError as exc:
                    gap(group.tolist(), [c + m for c, _ in members], exc)
        premium[:, member_columns] = (averages[:, :1] - averages[:, 1:]).reshape(len(windows), -1)
    return ErpReport(windows, columns, premium, sample_size, gaps)
