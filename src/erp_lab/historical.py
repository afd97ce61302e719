"""Historical premium estimation over configurable windows.

The premium is measured against a chosen riskfree instrument over an
inclusive calendar-year window.  Estimates average each leg with the
chosen scheme and then difference (average-then-difference); for the
arithmetic scheme this coincides with differencing first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averaging import AveragingMethod
from .errors import (
    EmptyInputError,
    EmptyIntersectionError,
    EmptyWindowError,
    HorizonExceedsSampleError,
)
from .io import format_cell
from .timeseries import ReturnSeries, align

YearWindow = tuple[int, int]


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
        if self.window[0] > self.window[1]:
            raise ValueError(f"window start {self.window[0]} after end {self.window[1]}")


def premium_series(equity: ReturnSeries, riskfree: ReturnSeries) -> ReturnSeries:
    """Per-date excess return: equity minus riskfree on common dates.

    A uniform shift applied to both inputs (inflation moving every
    nominal return) cancels in the subtraction, so the premium does not
    depend on working in nominal or real terms.
    """
    dates, eq, rf = align(equity, riskfree)
    return ReturnSeries(dates, eq - rf)


def historical_erp(
    equity: ReturnSeries,
    riskfree: ReturnSeries,
    window: YearWindow,
    method: AveragingMethod,
    riskfree_label: str = "riskfree",
) -> ErpEstimate:
    """Premium over an inclusive year window under one averaging scheme.

    Both series are paired on common dates, restricted to observations
    whose year falls inside the window, averaged per leg with ``method``,
    and differenced.  Under arithmetic or exponential weighting the
    estimate is exactly invariant to a uniform shift of both legs;
    under geometric averaging only approximately so.

    Raises
    ------
    EmptyIntersectionError
        The series share no dates at all.
    EmptyWindowError
        No common observation falls inside the window.
    """
    eq_in, rf_in = _window_legs(*_aligned_years(equity, riskfree), window)
    premium = method.apply(eq_in) - method.apply(rf_in)
    return ErpEstimate(premium, tuple(window), riskfree_label, method, len(eq_in))


def _aligned_years(equity: ReturnSeries, riskfree: ReturnSeries
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The common dates' years (ascending) and both legs' values on them."""
    dates, eq, rf = align(equity, riskfree)
    return np.fromiter((d.year for d in dates), np.int64, len(dates)), eq, rf


def _window_rows(years: np.ndarray, windows: list[YearWindow]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Each inclusive window's first and stop rows in the sorted ``years``:
    its observations are the contiguous rows ``first:stop``, and none
    where ``stop <= first``."""
    starts, ends = zip(*windows)
    return (np.searchsorted(years, starts, side="left"),
            np.searchsorted(years, ends, side="right"))


def _empty_window(window: YearWindow) -> EmptyWindowError:
    return EmptyWindowError(f"no aligned observations in {window[0]}-{window[1]}")


def _window_legs(years: np.ndarray, eq: np.ndarray, rf: np.ndarray,
                 window: YearWindow) -> tuple[np.ndarray, np.ndarray]:
    """Both legs' observations whose year falls inside the inclusive window."""
    (first,), (stop,) = _window_rows(years, [window])
    if stop <= first:
        raise _empty_window(window)
    return eq[first:stop], rf[first:stop]


@dataclass(frozen=True)
class ReportCell:
    """One report cell: an estimate, or a flagged gap with a reason."""

    estimate: ErpEstimate | None
    note: str = ""

    @property
    def missing(self) -> bool:
        return self.estimate is None


@dataclass(frozen=True)
class ErpReport:
    """Grid of premium estimates: windows down, (riskfree x method) across."""

    windows: tuple[YearWindow, ...]
    columns: tuple[tuple[str, AveragingMethod], ...]
    cells: tuple[tuple[ReportCell, ...], ...]

    def column_labels(self) -> list[str]:
        return [f"{label} {method.label}" for label, method in self.columns]

    def to_csv(self) -> str:
        """One row per window; missing cells render as NA."""
        lines = ["window," + ",".join(self.column_labels())]
        for window, row in zip(self.windows, self.cells):
            rendered = [
                "NA" if cell.missing else format_cell(cell.estimate.premium)
                for cell in row
            ]
            lines.append(f"{window[0]}-{window[1]}," + ",".join(rendered))
        return "\n".join(lines) + "\n"


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
    is aligned with the equity series once, and all windows of the same
    row count are averaged together.
    """
    if not riskfree_variants or not windows or not methods:
        raise EmptyInputError("need at least one riskfree variant, window, and method")
    columns = tuple((label, method) for label, _ in riskfree_variants for method in methods)
    aligned = []
    for label, riskfree in riskfree_variants:
        try:
            aligned.append((label, _aligned_years(equity, riskfree), ""))
        except EmptyIntersectionError as exc:
            aligned.append((label, None, str(exc)))
    tables = [[[ReportCell(None, note=gap)] * len(methods) for _ in windows] if legs is None
              else _variant_cells(legs, windows, methods, label)
              for label, legs, gap in aligned]
    rows = tuple(tuple(cell for table in tables for cell in table[i])
                 for i in range(len(windows)))
    return ErpReport(tuple(windows), columns, rows)


def _variant_cells(legs: tuple[np.ndarray, np.ndarray, np.ndarray],
                   windows: list[YearWindow], methods: list[AveragingMethod],
                   label: str) -> list[list[ReportCell]]:
    """One aligned riskfree variant's cells, one list per window in method
    order.  Windows with the same row count are stacked and averaged with
    one ``apply`` call per method and leg."""
    years, eq, rf = legs
    first, stop = _window_rows(years, windows)
    lengths = stop - first
    table = [[ReportCell(None, note=str(_empty_window(window)))] * len(methods) if n <= 0
             else [None] * len(methods) for window, n in zip(windows, lengths.tolist())]
    for n in sorted(set(lengths.tolist())):
        if n <= 0:
            continue
        group = np.flatnonzero(lengths == n)
        rows = first[group, None] + np.arange(n)
        eq_in, rf_in = eq[rows], rf[rows]
        for m, method in enumerate(methods):
            try:
                premiums = (method.apply(eq_in) - method.apply(rf_in)).tolist()
            except HorizonExceedsSampleError as exc:
                for i in group.tolist():
                    table[i][m] = ReportCell(None, note=str(exc))
                continue
            for i, premium in zip(group.tolist(), premiums):
                table[i][m] = ReportCell(
                    ErpEstimate(premium, tuple(windows[i]), label, method, n))
    return table
