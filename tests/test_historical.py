"""Tests for historical premium estimation and the report grid."""

import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erp_lab import historical
from erp_lab.averaging import AveragingMethod
from erp_lab.errors import (
    EmptyInputError,
    EmptyIntersectionError,
    EmptyWindowError,
    HorizonExceedsSampleError,
)
from erp_lab.historical import (
    ErpEstimate,
    ErpReport,
    ReportCell,
    erp_report,
    historical_erp,
    premium_series,
)
from erp_lab.timeseries import ReturnSeries, align

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


class TestHistoricalErp:
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

    def test_report_cell_missing_property(self):
        assert ReportCell(None, note="gap").missing
        est = historical_erp(annual([0.1]), annual([0.0]), (2000, 2000), ARITH)
        assert not ReportCell(est).missing

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


def reference_report(equity, riskfree_variants, windows, methods):
    """The report one cell at a time: align, a per-date year mask, then
    ``apply`` on each leg."""
    columns = tuple((label, method) for label, _ in riskfree_variants for method in methods)
    rows = []
    for start, end in windows:
        row = []
        for label, riskfree in riskfree_variants:
            for method in methods:
                try:
                    dates, eq, rf = align(equity, riskfree)
                    mask = [start <= d.year <= end for d in dates]
                    if not any(mask):
                        raise EmptyWindowError(f"no aligned observations in {start}-{end}")
                    eq_in, rf_in = eq[mask], rf[mask]
                    premium = method.apply(eq_in) - method.apply(rf_in)
                    row.append(ReportCell(ErpEstimate(
                        premium, (start, end), label, method, len(eq_in))))
                except CELL_GAPS as exc:
                    row.append(ReportCell(None, note=str(exc)))
        rows.append(tuple(row))
    return ErpReport(tuple(windows), columns, tuple(rows))


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
    methods = draw(st.lists(st.one_of(
        st.just(ARITH),
        st.just(GEOM),
        st.integers(1, 12).map(AveragingMethod.blume),
        st.floats(0.05, 1.0).map(AveragingMethod.exp_weighted),
    ), min_size=1, max_size=4))
    return equity, variants, windows, methods


class TestReportAgainstPerCellReference:
    @settings(max_examples=200, deadline=None)
    @given(report_inputs())
    def test_matches_reference(self, inputs):
        equity, variants, windows, methods = inputs
        report = erp_report(*inputs)
        expected = reference_report(*inputs)
        assert report.to_csv() == expected.to_csv()
        assert report == expected
        for window, row, expected_row in zip(windows, report.cells, expected.cells):
            for (label, method), cell, expected_cell in zip(report.columns, row, expected_row):
                assert cell.note == expected_cell.note
                one_cell = (equity, dict(variants)[label], window, method, label)
                if cell.missing:
                    with pytest.raises(CELL_GAPS) as gap:
                        historical_erp(*one_cell)
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

    def test_one_apply_per_variant_leg_row_count_and_method(self, monkeypatch):
        calls = []
        apply = AveragingMethod.apply

        def counted(method, returns):
            calls.append((method, np.shape(returns)))
            return apply(method, returns)

        monkeypatch.setattr(AveragingMethod, "apply", counted)
        eq = annual(np.linspace(-0.2, 0.3, 20))
        variants = [("tbills", annual([0.03] * 20)), ("tbonds", annual([0.05] * 15)),
                    ("disjoint", annual([0.01, 0.02], first_year=2030))]
        # twelve 5-year windows (two of them repeated), three 10-year
        # windows, one single year and one window outside the data
        windows = ([(2000 + i, 2004 + i) for i in range(10)] + [(2003, 2007), (2003, 2007)]
                   + [(2000, 2009), (2005, 2014), (2002, 2011), (2012, 2012), (1990, 1995)])
        methods = [ARITH, GEOM, AveragingMethod.blume(1), AveragingMethod.exp_weighted(0.9)]
        report = erp_report(eq, variants, windows, methods)
        # per aligned variant, leg and method: one (12, 5), one (3, 10) and one (1, 1) stack
        stacks = sorted([(12, 5), (3, 10), (1, 1)] * 2 * 2)
        assert len(calls) == len(stacks) * len(methods)
        for method in methods:
            assert sorted(shape for m, shape in calls if m == method) == stacks
        assert report == reference_report(eq, variants, windows, methods)
