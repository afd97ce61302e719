"""Historical premium estimation over configurable windows.

The premium is measured against a chosen riskfree instrument over an
inclusive calendar-year window.  Estimates average each leg with the
chosen scheme and then difference (average-then-difference); for the
arithmetic scheme this coincides with differencing first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .averaging import AveragingMethod
from .errors import (
    DataError,
    EmptyInputError,
    EmptyIntersectionError,
    EmptyWindowError,
    HorizonExceedsSampleError,
)
from .io import csv_header, format_cell
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
    days, eq, rf = align(equity, riskfree)
    return ReturnSeries(days, eq - rf)


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


def _aligned_years(equity: ReturnSeries, riskfree: ReturnSeries
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The common dates' years (ascending) and both legs' values on them."""
    days, eq, rf = align(equity, riskfree)
    return days.astype("datetime64[Y]").astype(np.int64) + 1970, eq, rf


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
        return [f"{label} {method.label}" for label, method in self.columns]

    def to_csv(self) -> str:
        """One row per window; missing cells render as NA.  A header field
        holding a comma, quote or line break is quoted."""
        lines = [csv_header(["window", *self.column_labels()])]
        for i, (window, row) in enumerate(zip(self.windows, self.premium.tolist())):
            lines.append(f"{window[0]}-{window[1]}," + ",".join(
                "NA" if (i, j) in self.gaps else format_cell(p) for j, p in enumerate(row)))
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
    is aligned with the equity series once; a window's observations are
    the aligned rows whose year lies inside it.  Windows with the same
    row count are averaged together, one ``apply`` per method and leg.
    """
    if not riskfree_variants or not windows or not methods:
        raise EmptyInputError("need at least one riskfree variant, window, and method")
    windows = tuple(map(tuple, windows))
    columns = tuple((label, method) for label, _ in riskfree_variants for method in methods)
    premium = np.full((len(windows), len(columns)), np.nan)
    sample_size = np.zeros(premium.shape, dtype=np.int64)
    gaps: dict[tuple[int, int], DataError] = {}
    starts, ends = zip(*windows)
    for v, (_, riskfree) in enumerate(riskfree_variants):
        variant = range(v * len(methods), (v + 1) * len(methods))
        try:
            years, eq, rf = _aligned_years(equity, riskfree)
        except EmptyIntersectionError as exc:
            exc = exc.with_traceback(None)
            gaps.update(((i, c), exc) for i in range(len(windows)) for c in variant)
            continue
        first = np.searchsorted(years, starts, side="left")
        lengths = np.searchsorted(years, ends, side="right") - first
        sample_size[:, variant.start:variant.stop] = np.maximum(lengths, 0)[:, None]
        for n in sorted(set(lengths.tolist())):
            group = np.flatnonzero(lengths == n)
            if n <= 0:
                gaps.update(((i, c), EmptyWindowError("no aligned observations in %s-%s"
                                                      % windows[i]))
                            for i in group.tolist() for c in variant)
                continue
            rows = first[group, None] + np.arange(n)
            eq_in, rf_in = eq[rows], rf[rows]
            for c, method in zip(variant, methods):
                try:
                    premium[group, c] = method.apply(eq_in) - method.apply(rf_in)
                except HorizonExceedsSampleError as exc:
                    exc = exc.with_traceback(None)
                    gaps.update(((i, c), exc) for i in group.tolist())
    return ErpReport(windows, columns, premium, sample_size, gaps)
