"""Tests for historical premium estimation and the report grid."""

import math
from collections import Counter
from datetime import date, timedelta
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erp_lab import historical
from erp_lab.averaging import AveragingMethod
from erp_lab.errors import (
    DataError,
    EmptyInputError,
    EmptyIntersectionError,
    EmptyWindowError,
    HorizonExceedsSampleError,
)
from erp_lab.historical import (
    ErpEstimate,
    ReportCell,
    erp_report,
    historical_erp,
    premium_series,
    report_columns,
)
from erp_lab.timeseries import DatedSeries, ReturnSeries, align

ARITH = AveragingMethod.arithmetic()
GEOM = AveragingMethod.geometric()


def annual(values, first_year=2000):
    dates = tuple(date(first_year + i, 12, 31) for i in range(len(values)))
    return ReturnSeries(dates, np.asarray(values, dtype=float))


class TestPremiumSeries:
    def test_single_date(self):
        out = premium_series(annual([0.10]), annual([0.04]))
        np.testing.assert_allclose(out.values, [0.06], atol=1e-15)

    def test_identical_legs_give_zero(self):
        eq = annual([0.1, 0.2, -0.05])
        out = premium_series(eq, eq)
        np.testing.assert_array_equal(out.values, np.zeros(3))

    def test_alignment(self):
        eq = annual([0.10, 0.20, 0.30], first_year=2000)
        rf = annual([0.01, 0.02], first_year=2001)
        out = premium_series(eq, rf)
        assert out.dates == (date(2001, 12, 31), date(2002, 12, 31))
        np.testing.assert_allclose(out.values, [0.19, 0.28], atol=1e-15)

    def test_disjoint_raises(self):
        with pytest.raises(EmptyIntersectionError):
            premium_series(annual([0.1]), annual([0.01], first_year=2010))

    def test_excess_return_may_reach_minus_one(self):
        # a difference of returns, not the return of a positive price
        eq, rf = annual([-0.60, 0.10, 0.20]), annual([0.50, 0.05, 0.05])
        out = premium_series(eq, rf)
        assert type(out) is DatedSeries
        np.testing.assert_allclose(out.values, [-1.10, 0.05, 0.15], atol=1e-15)
        assert historical_erp(eq, rf, (2000, 2002), ARITH).premium == pytest.approx(-0.30)


class TestHistoricalErp:
    @given(st.lists(st.dates(), min_size=1, max_size=20, unique=True).map(sorted))
    @settings(max_examples=150, deadline=None)
    def test_years_are_the_dates_years(self, dates):
        series = ReturnSeries(dates, np.zeros(len(dates)))
        assert historical._years(series.days).tolist() == [d.year for d in dates]

    def test_constant_series_all_methods(self):
        eq = annual([0.08] * 10)
        rf = annual([0.03] * 10)
        for method in (ARITH, GEOM, AveragingMethod.blume(5),
                       AveragingMethod.exp_weighted(0.9)):
            est = historical_erp(eq, rf, (2000, 2009), method)
            assert est.premium == pytest.approx(0.05, abs=1e-12)
            assert est.sample_size == 10

    def test_geometric_average_then_difference(self):
        # equity compounds to 0.99 over two years, riskfree is flat zero,
        # so the estimate is the compound mean sqrt(0.99) - 1 itself
        eq = annual([0.10, -0.10])
        rf = annual([0.0, 0.0])
        est = historical_erp(eq, rf, (2000, 2001), GEOM)
        assert est.premium == pytest.approx(math.sqrt(0.99) - 1.0, abs=1e-12)

    def test_window_is_inclusive(self):
        eq = annual([0.10, 0.20, 0.30, 0.40])
        rf = annual([0.0, 0.0, 0.0, 0.0])
        est = historical_erp(eq, rf, (2001, 2002), ARITH)
        assert est.sample_size == 2
        assert est.premium == pytest.approx(0.25, abs=1e-15)

    def test_provenance_fields(self):
        est = historical_erp(annual([0.1, 0.2]), annual([0.0, 0.0]),
                             (2000, 2001), ARITH, riskfree_label="tbills")
        assert est.window == (2000, 2001)
        assert est.riskfree_label == "tbills"
        assert est.method is ARITH

    def test_empty_window_raises(self):
        with pytest.raises(EmptyWindowError):
            historical_erp(annual([0.1, 0.2]), annual([0.0, 0.0]), (1990, 1995), ARITH)

    def test_out_of_window_data_is_ignored_bitwise(self):
        rng = np.random.default_rng(31)
        eq_vals = rng.uniform(-0.3, 0.3, 20)
        rf_vals = rng.uniform(0.0, 0.08, 20)
        base = historical_erp(annual(eq_vals), annual(rf_vals), (2005, 2014), GEOM)
        noisy_eq = eq_vals.copy()
        noisy_eq[:5] += 0.77
        noisy_eq[-3:] -= 0.11
        perturbed = historical_erp(annual(noisy_eq), annual(rf_vals), (2005, 2014), GEOM)
        assert perturbed.premium == base.premium

    def test_arithmetic_shift_invariance(self):
        rng = np.random.default_rng(32)
        eq_vals = rng.uniform(-0.3, 0.3, 15)
        rf_vals = rng.uniform(0.0, 0.08, 15)
        window = (2000, 2014)
        for method in (ARITH, AveragingMethod.exp_weighted(0.95)):
            base = historical_erp(annual(eq_vals), annual(rf_vals), window, method)
            shifted = historical_erp(annual(eq_vals + 0.03), annual(rf_vals + 0.03),
                                     window, method)
            assert abs(shifted.premium - base.premium) < 1e-12

    def test_geometric_not_larger_than_arithmetic_vs_constant_riskfree(self):
        rng = np.random.default_rng(33)
        eq_vals = rng.uniform(-0.4, 0.5, 30)
        rf = annual([0.03] * 30)
        a = historical_erp(annual(eq_vals), rf, (2000, 2029), ARITH)
        g = historical_erp(annual(eq_vals), rf, (2000, 2029), GEOM)
        assert g.premium <= a.premium + 1e-12

    def test_reversed_window_raises_as_the_estimate_does(self):
        with pytest.raises(ValueError, match="^window start 2003 after end 2001$"):
            historical_erp(annual([0.1] * 5), annual([0.0] * 5), (2003, 2001), ARITH)

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            ErpEstimate(0.05, (2005, 2000), "tbills", ARITH, 5)
        with pytest.raises(ValueError):
            ErpEstimate(0.05, (2000, 2005), "tbills", ARITH, 0)


class TestErpReport:
    def test_grid_shape_and_labels(self):
        eq = annual([0.08] * 10)
        tb = annual([0.03] * 10)
        bd = annual([0.05] * 10)
        report = erp_report(eq, [("tbills", tb), ("tbonds", bd)],
                            [(2000, 2004), (2000, 2009), (2005, 2009)],
                            [ARITH, GEOM])
        assert len(report.cells) == 3
        assert all(len(row) == 4 for row in report.cells)
        assert report.column_labels() == [
            "tbills arithmetic", "tbills geometric",
            "tbonds arithmetic", "tbonds geometric",
        ]

    def test_constant_data_fills_grid_uniformly(self):
        eq = annual([0.08] * 10)
        tb = annual([0.03] * 10)
        report = erp_report(eq, [("tbills", tb)], [(2000, 2009)], [ARITH, GEOM])
        for cell in report.cells[0]:
            assert not cell.missing
            assert cell.estimate.premium == pytest.approx(0.05, abs=1e-12)

    def test_empty_window_cell_is_flagged_not_fatal(self):
        eq = annual([0.08] * 5)
        tb = annual([0.03] * 5)
        report = erp_report(eq, [("tbills", tb)], [(2000, 2004), (2010, 2014)], [ARITH])
        good, bad = report.cells[0][0], report.cells[1][0]
        assert not good.missing
        assert bad.missing
        assert "2010-2014" in bad.note

    def test_to_csv_layout(self):
        eq = annual([0.08] * 5)
        tb = annual([0.03] * 5)
        report = erp_report(eq, [("tbills", tb)], [(2000, 2004), (2010, 2014)], [ARITH])
        text = report.to_csv()
        lines = text.splitlines()
        assert lines[0] == "window,tbills arithmetic"
        assert lines[1] == "2000-2004,0.0500000000"
        assert lines[2] == "2010-2014,NA"
        assert text.endswith("\n")

    def test_window_labels_name_rows_and_empty_windows(self):
        eq = annual([0.08] * 5)
        tb = annual([0.03] * 5)
        report = erp_report(eq, [("tbills", tb)], [(2000, 2004), (2010, 2014)], [ARITH])
        assert report.window_labels() == ["2000-2004", "2010-2014"]
        assert [line.split(",")[0] for line in report.to_csv().splitlines()[1:]] == \
            report.window_labels()
        assert str(report.gaps[1, 0]) == "no aligned observations in 2010-2014"

    def test_grid_is_arrays_with_the_gaps_keyed_by_cell(self):
        variants = [("tbills", annual([0.03] * 5)),
                    ("later", annual([0.01], first_year=2030))]
        windows = [(2000, 2004), (2010, 2014), (2003, 2004)]
        report = erp_report(annual([0.08] * 5), variants, windows,
                            [ARITH, AveragingMethod.blume(3)])
        assert report.premium.shape == report.sample_size.shape == (3, 4)
        assert report.sample_size.tolist() == [[5, 5, 0, 0], [0, 0, 0, 0], [2, 2, 0, 0]]
        kinds = {key: type(gap) for key, gap in report.gaps.items()}
        assert kinds == {
            **{(i, j): EmptyIntersectionError for i in range(3) for j in (2, 3)},
            (1, 0): EmptyWindowError, (1, 1): EmptyWindowError,
            (2, 1): HorizonExceedsSampleError,
        }
        assert np.isnan(report.premium[tuple(zip(*report.gaps))]).all()
        # a stored gap holds no traceback, so no frame of erp_report stays alive
        assert all(gap.__traceback__ is None for gap in report.gaps.values())
        np.testing.assert_allclose(report.premium[[0, 0, 2], [0, 1, 0]], 0.05, atol=1e-12)
        cells = report.cells
        assert cells is report.cells
        assert isinstance(cells[0][0].estimate.premium, float)
        assert type(cells[2][0].estimate.sample_size) is int
        assert report == erp_report(annual([0.08] * 5), variants, windows,
                                    [ARITH, AveragingMethod.blume(3)])
        assert report != erp_report(annual([0.08] * 5), variants, windows[:2],
                                    [ARITH, AveragingMethod.blume(3)])
        with pytest.raises(TypeError):
            hash(report)

    def test_premium_overflowing_to_nan_renders_nan_not_na(self):
        # outside the command line's float traps numpy only warns, and the
        # cell keeps the NaN it computed: a filled cell, not a gap
        huge = annual([1e308, 1e308])
        with pytest.warns(RuntimeWarning):
            report = erp_report(huge, [("tbills", huge)], [(2000, 2001)], [ARITH])
        assert not report.gaps
        ((cell,),) = report.cells
        assert not cell.missing and math.isnan(cell.estimate.premium)
        assert report.to_csv().splitlines()[1] == "2000-2001,nan"

    def test_report_cell_missing_property(self):
        assert ReportCell(None, note="gap").missing
        est = historical_erp(annual([0.1]), annual([0.0]), (2000, 2000), ARITH)
        assert not ReportCell(est).missing

    @pytest.mark.parametrize("labels, methods, column", [
        (["a", "a"], [ARITH], "a arithmetic"),
        (["tbills"], [GEOM, ARITH, GEOM], "tbills geometric"),
    ], ids=["label-twice", "method-twice"])
    def test_repeated_column_label_is_data_error(self, labels, methods, column):
        eq, rf = annual([0.08] * 3), annual([0.03] * 3)
        message = f"^report column '{column}' appears more than once$"
        with pytest.raises(DataError, match=message):
            report_columns(labels, methods)
        with pytest.raises(DataError, match=message):
            erp_report(eq, [(label, rf) for label in labels], [(2000, 2002)], methods)

    def test_reversed_window_raises_before_any_alignment(self, monkeypatch):
        def refused(a, b):
            raise AssertionError("aligned a report with a reversed window")

        monkeypatch.setattr(historical, "align", refused)
        eq, rf = annual([0.08] * 5), annual([0.03] * 5)
        with pytest.raises(ValueError, match="^window start 2003 after end 2001$"):
            erp_report(eq, [("rf", rf)], [(2000, 2004), (2003, 2001)], [ARITH])

    def test_empty_argument_lists_raise(self):
        eq = annual([0.08] * 5)
        tb = annual([0.03] * 5)
        with pytest.raises(EmptyInputError):
            erp_report(eq, [], [(2000, 2004)], [ARITH])
        with pytest.raises(EmptyInputError):
            erp_report(eq, [("tbills", tb)], [], [ARITH])
        with pytest.raises(EmptyInputError):
            erp_report(eq, [("tbills", tb)], [(2000, 2004)], [])


CELL_GAPS = (EmptyWindowError, EmptyIntersectionError, HorizonExceedsSampleError)


def reference_report(equity, riskfree_variants, windows, methods, gaps=None):
    """The report's columns and cells, one cell at a time: align, a
    per-date year mask, then ``apply`` on each leg.  A ``gaps`` dict
    receives each missing cell's exception, keyed like ``ErpReport.gaps``."""
    columns = tuple((label, method) for label, _ in riskfree_variants for method in methods)
    rows = []
    for i, (start, end) in enumerate(windows):
        row = []
        for label, riskfree in riskfree_variants:
            for method in methods:
                try:
                    dates, eq, rf = align(equity, riskfree)
                    mask = [start <= d.year <= end for d in dates.tolist()]
                    if not any(mask):
                        raise EmptyWindowError(f"no aligned observations in {start}-{end}")
                    eq_in, rf_in = eq[mask], rf[mask]
                    premium = method.apply(eq_in) - method.apply(rf_in)
                    row.append(ReportCell(ErpEstimate(
                        premium, (start, end), label, method, len(eq_in))))
                except CELL_GAPS as exc:
                    if gaps is not None:
                        gaps[i, len(row)] = exc
                    row.append(ReportCell(None, note=str(exc)))
        rows.append(tuple(row))
    return columns, tuple(rows)


def gap_types(gaps):
    """Each missing cell's exception type, keyed by its (window, column)."""
    return {cell: type(exc) for cell, exc in gaps.items()}


def reference_csv(windows, columns, cells):
    """``report.csv`` rendered cell by cell (labels without CSV specials)."""
    lines = ["window," + ",".join(f"{label} {method.label}" for label, method in columns)]
    for (start, end), row in zip(windows, cells):
        lines.append(f"{start}-{end}," + ",".join(
            "NA" if cell.missing else f"{cell.estimate.premium:.10f}" for cell in row))
    return "\n".join(lines) + "\n"


AVERAGING_METHODS = st.one_of(
    st.just(ARITH),
    st.just(GEOM),
    st.integers(1, 12).map(AveragingMethod.blume),
    st.floats(0.05, 1.0).map(AveragingMethod.exp_weighted),
)


@st.composite
def report_inputs(draw):
    """An equity series, riskfree variants (one possibly sharing no date
    with it), windows inside, across and outside the data, and methods."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        first = draw(st.integers(1950, 2000))
        grid = [date(first + i, 12, 31) for i in range(n)]
    else:
        # daily-ish dates starting near a year end, so that they cross years
        day = date(draw(st.integers(1950, 2000)), 12, draw(st.integers(1, 31)))
        grid = []
        for gap in draw(st.lists(st.integers(1, 90), min_size=n, max_size=n)):
            day += timedelta(days=gap)
            grid.append(day)
    returns = st.floats(-0.9, 2.0, allow_nan=False)

    def subset():
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
        dates = [d for d, k in zip(grid, keep) if k]
        values = draw(st.lists(returns, min_size=len(dates), max_size=len(dates)))
        return ReturnSeries(dates, np.array(values))

    equity = subset()
    variants = [(f"rf{i}", subset()) for i in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        after = [equity.dates[-1] + timedelta(days=k) for k in range(1, draw(st.integers(2, 5)))]
        disjoint = ReturnSeries(after, np.full(len(after), 0.01))
        variants.insert(draw(st.integers(0, len(variants))), ("disjoint", disjoint))

    years = st.integers(grid[0].year - 3, grid[-1].year + 3)
    windows = draw(st.lists(st.tuples(years, years).map(sorted).map(tuple),
                            min_size=1, max_size=8))
    methods = draw(st.lists(AVERAGING_METHODS, min_size=1, max_size=4))
    return equity, variants, windows, methods


class TestReportAgainstPerCellReference:
    @settings(max_examples=200, deadline=None)
    @given(report_inputs())
    def test_matches_reference(self, inputs):
        equity, variants, windows, methods = inputs
        labels = [f"{label} {method.label}" for label, _ in variants for method in methods]
        if len(set(labels)) < len(labels):
            with pytest.raises(DataError, match="appears more than once"):
                erp_report(*inputs)
            return
        report = erp_report(*inputs)
        expected_gaps = {}
        columns, cells = reference_report(*inputs, gaps=expected_gaps)
        assert (report.windows, report.columns, report.cells) == (tuple(windows), columns, cells)
        assert gap_types(report.gaps) == gap_types(expected_gaps)
        assert report.to_csv() == reference_csv(windows, columns, cells)
        assert report == erp_report(*inputs)
        for i, (window, row, expected_row) in enumerate(zip(windows, report.cells, cells)):
            for j, ((label, method), cell, expected_cell) in enumerate(
                    zip(report.columns, row, expected_row)):
                assert cell.note == expected_cell.note
                one_cell = (equity, dict(variants)[label], window, method, label)
                if cell.missing:
                    with pytest.raises(CELL_GAPS) as gap:
                        historical_erp(*one_cell)
                    assert type(gap.value) is type(expected_gaps[i, j])
                    assert str(gap.value) == cell.note
                else:
                    assert cell.estimate.sample_size == expected_cell.estimate.sample_size
                    assert historical_erp(*one_cell) == cell.estimate

    def test_aligns_once_per_riskfree_variant(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return align(a, b)

        monkeypatch.setattr(historical, "align", counted)
        eq = annual([0.08, 0.02, -0.04, 0.11, 0.06])
        variants = [("tbills", annual([0.03] * 5)), ("tbonds", annual([0.05] * 5)),
                    ("disjoint", annual([0.01, 0.02], first_year=2020))]
        report = erp_report(eq, variants, [(2000, 2001), (2000, 2004), (2010, 2014)],
                            [ARITH, GEOM, AveragingMethod.blume(3)])
        assert len(calls) == len(variants)
        assert all(cell.note == "series share no common dates"
                   for row in report.cells for cell in row[6:])

    def test_one_apply_per_calendar_row_count_and_method(self, monkeypatch):
        calls = counted_applies(monkeypatch)
        eq = annual(np.linspace(-0.2, 0.3, 20))
        # tbills and tips share the equity series' 20 days, tbonds has 15
        variants = [("tbills", annual([0.03] * 20)), ("tbonds", annual([0.05] * 15)),
                    ("disjoint", annual([0.01, 0.02], first_year=2030)),
                    ("tips", annual(np.linspace(0.0, 0.02, 20)))]
        # twelve 5-year windows (two of them repeated), three 10-year
        # windows, one single year and one window outside the data
        windows = ([(2000 + i, 2004 + i) for i in range(10)] + [(2003, 2007), (2003, 2007)]
                   + [(2000, 2009), (2005, 2014), (2002, 2011), (2012, 2012), (1990, 1995)])
        blume = AveragingMethod.blume(1)
        methods = [ARITH, GEOM, blume, AveragingMethod.exp_weighted(0.9)]
        report = erp_report(eq, variants, windows, methods)
        # per calendar and underlying mean: one ((1 + members) * k, n) stack
        # for each row count n shared by k windows, the equity leg stacked
        # once; blume blends the stack's arithmetic and geometric means and
        # makes no apply of its own
        stacks = sorted(((1 + members) * k, n) for members in (2, 1)
                        for k, n in [(12, 5), (3, 10), (1, 1)])
        assert len(calls) == len(stacks) * (len(methods) - 1)
        for method in methods:
            shapes = sorted(stack.shape for m, stack in calls if m == method)
            assert shapes == ([] if method == blume else stacks)
        assert report.cells == reference_report(eq, variants, windows, methods)[1]


def counted_applies(monkeypatch):
    """Record each ``AveragingMethod.apply`` call as ``(method, returns)``."""
    calls = []
    apply = AveragingMethod.apply

    def counted(method, returns):
        calls.append((method, returns))
        return apply(method, returns)

    monkeypatch.setattr(AveragingMethod, "apply", counted)
    return calls


def assert_reference_bits(report, equity, variants, windows, methods):
    """Every cell of ``report`` bit for bit the per-cell reference's: its
    note, its premium's ``float.hex`` (a gap's is NaN) and, filled, its
    sample size."""
    columns, cells = reference_report(equity, variants, windows, methods)
    assert report.columns == columns
    expected = [[(cell.note, float.hex(math.nan if cell.missing else cell.estimate.premium),
                  None if cell.missing else cell.estimate.sample_size) for cell in row]
                for row in cells]
    got = [[(cell.note, float.hex(premium), None if cell.missing else size)
            for cell, premium, size in zip(*row)]
           for row in zip(report.cells, report.premium.tolist(), report.sample_size.tolist())]
    assert got == expected


BLUME = AveragingMethod.blume
# 12 equity returns from 2000 on: tbills on its days, tbonds on 2003-2011
BLUME_EQUITY = annual(np.expm1(np.linspace(-0.3, 0.4, 12) * np.cos(np.arange(12))))
BLUME_VARIANTS = [("tbills", annual(np.linspace(0.01, 0.05, 12))),
                  ("tbonds", annual(np.linspace(0.06, 0.02, 9), first_year=2003))]
# 1, 2, 3, 5 and 8 rows on the equity calendar, and an empty window
BLUME_WINDOWS = [(2004, 2004), (2000, 2001), (2003, 2005), (2006, 2010), (2001, 2008),
                 (2002, 2004), (1990, 1991)]


class TestEachMeanOncePerStack:
    """erp_report averages each stack at most once per underlying mean,
    whatever the order of the methods: blume blends the stack's own
    arithmetic and geometric means and makes no apply of its own; every
    cell keeps the per-cell reference's bits."""

    @pytest.mark.parametrize("methods", [
        [BLUME(3)],
        [BLUME(4), GEOM],
        [BLUME(4), GEOM, ARITH],
        [BLUME(2), BLUME(6)],
        [ARITH, BLUME(5), AveragingMethod.exp_weighted(0.8)],
    ], ids=["blume alone", "blume before geometric", "blume before both",
            "two horizons", "horizon beyond some windows"])
    def test_matches_reference_bit_for_bit(self, monkeypatch, methods):
        calls = counted_applies(monkeypatch)
        report = erp_report(BLUME_EQUITY, BLUME_VARIANTS, BLUME_WINDOWS, methods)
        assert all(method.kind != "blume" for method, _ in calls)
        # calls holds each stack, so no two stacks share an id
        once = Counter((method, id(stack)) for method, stack in calls)
        assert calls and max(once.values()) == 1
        monkeypatch.undo()
        assert_reference_bits(report, BLUME_EQUITY, BLUME_VARIANTS, BLUME_WINDOWS, methods)

    def test_horizon_beyond_a_window_leaves_its_cells_gaps(self):
        methods = [ARITH, BLUME(5)]
        report = erp_report(BLUME_EQUITY, BLUME_VARIANTS, BLUME_WINDOWS, methods)
        blume_gaps = sorted((i, j) for (i, j), exc in report.gaps.items()
                            if isinstance(exc, HorizonExceedsSampleError))
        # the windows of 1 to 3 rows on either calendar; tbonds has no row
        # in 2000-2001, an empty window there
        assert blume_gaps == [(i, j) for i in (0, 1, 2, 5) for j in (1, 3) if (i, j) != (1, 3)]
        assert str(report.gaps[2, 1]) == "horizon 5 exceeds sample length 3"
        assert np.isnan(report.premium[[0, 1, 2, 5], 1]).all()
        assert not np.isnan(report.premium[[3, 4], 1]).any()
        assert_reference_bits(report, BLUME_EQUITY, BLUME_VARIANTS, BLUME_WINDOWS, methods)

    def test_one_row_window_of_signed_zeros(self):
        equity = annual([0.1, -0.0, 0.2, -0.0])
        variants = [("zero", annual([0.03, 0.0, 0.01, -0.0])),
                    ("negzero", annual([-0.0, -0.0, -0.0, 0.0]))]
        windows = [(2001, 2001), (2003, 2003), (2000, 2000), (2001, 2002)]
        methods = [BLUME(1), GEOM, AveragingMethod.exp_weighted(0.5), ARITH, BLUME(2)]
        report = erp_report(equity, variants, windows, methods)
        assert_reference_bits(report, equity, variants, windows, methods)


@st.composite
def shared_calendar_inputs(draw):
    """An equity series with several rows in some years, two or three
    variants on its own days, one on a subset of them and one on as many
    of them each year, perhaps the disjoint one, in any order; windows
    and methods as ``report_inputs``."""
    first = draw(st.integers(1950, 2000))
    per_year = draw(st.lists(st.integers(1, 3), min_size=1, max_size=15))
    days = [date(first + y, 12, 31) - timedelta(days=40 * k)
            for y, count in enumerate(per_year) for k in reversed(range(count))]
    n = len(days)
    returns = st.floats(-0.9, 2.0, allow_nan=False)

    def on(dates):
        values = draw(st.lists(returns, min_size=len(dates), max_size=len(dates)))
        return ReturnSeries(dates, np.array(values))

    equity = on(days)
    variants = [(f"same{i}", on(days)) for i in range(draw(st.integers(2, 3)))]
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n)
                .filter(lambda keep: any(keep) and not all(keep)) if n > 1 else st.just([True]))
    kept = [d for d, k in zip(days, keep) if k]
    # each year's last rows, as many as the subset keeps: the same
    # years, on other days unless they are the subset's own
    counts = Counter(d.year for d in kept)
    moved = []
    for year, in_year in groupby(days, key=lambda d: d.year):
        in_year = list(in_year)
        moved += in_year[len(in_year) - counts[year]:]
    variants += [("subset", on(kept)), ("moved", on(moved))]
    if draw(st.booleans()):
        variants.append(("disjoint", ReturnSeries([days[-1] + timedelta(days=1)], np.ones(1))))
    variants = draw(st.permutations(variants))

    years = st.integers(first - 2, first + len(per_year) + 2)
    windows = draw(st.lists(st.tuples(years, years).map(sorted).map(tuple),
                            min_size=1, max_size=8))
    methods = draw(st.lists(AVERAGING_METHODS, min_size=1, max_size=4,
                            unique_by=lambda method: method.label))
    return equity, variants, windows, methods


class TestSharedCalendars:
    @settings(max_examples=200, deadline=None)
    @given(shared_calendar_inputs())
    def test_every_cell_matches_reference_bit_for_bit(self, inputs):
        report = erp_report(*inputs)
        columns, cells = reference_report(*inputs)
        assert report.columns == columns
        for i, row in enumerate(cells):
            for j, expected in enumerate(row):
                want = (expected.note, float.hex(math.nan) if expected.missing else
                        float.hex(expected.estimate.premium))
                assert (report.cells[i][j].note, float.hex(report.premium[i, j])) == want
                if not expected.missing:
                    assert report.sample_size[i, j] == expected.estimate.sample_size

    @settings(max_examples=200, deadline=None)
    @given(shared_calendar_inputs())
    def test_every_gap_has_the_reference_type(self, inputs):
        expected_gaps = {}
        reference_report(*inputs, gaps=expected_gaps)
        assert gap_types(erp_report(*inputs).gaps) == gap_types(expected_gaps)
