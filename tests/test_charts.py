"""Tests for the deterministic SVG line chart."""

from datetime import date, timedelta
from xml.dom import minidom

import numpy as np
import pytest

from erp_lab.charts import FORMAT_COMMENT, line_chart_svg, write_line_chart
from erp_lab.errors import NumericalError
from erp_lab.timeseries import DatedSeries


def series(values, start=date(2020, 1, 1)):
    dates = tuple(start + timedelta(days=i) for i in range(len(values)))
    return DatedSeries(dates, np.asarray(values, dtype=float))


def test_contains_format_comment_and_axes():
    svg = line_chart_svg(series([1.0, 2.0, 3.0]), title="demo", y_label="erp")
    assert svg.startswith("<svg ")
    assert FORMAT_COMMENT in svg
    assert ">demo</text>" in svg
    assert ">erp</text>" in svg
    assert ">date</text>" in svg


def test_polyline_has_one_point_per_observation():
    n = 37
    svg = line_chart_svg(series(list(np.linspace(0.0, 1.0, n))))
    polyline = [line for line in svg.splitlines() if line.startswith("<polyline")][0]
    points = polyline.split('points="')[1].split('"')[0]
    assert len(points.split()) == n


def test_deterministic_output():
    s = series(list(np.sin(np.arange(100) / 7.0)))
    assert line_chart_svg(s, title="t") == line_chart_svg(s, title="t")


def test_zero_line_drawn_only_when_crossing():
    crossing = line_chart_svg(series([-1.0, 1.0]))
    positive = line_chart_svg(series([1.0, 2.0]))
    assert "stroke-dasharray" in crossing
    assert "stroke-dasharray" not in positive


def test_constant_series_has_padded_range():
    svg = line_chart_svg(series([2.0, 2.0, 2.0]))
    assert "<polyline" in svg


def test_x_tick_labels_are_iso_dates():
    svg = line_chart_svg(series([1.0] * 10, start=date(2021, 6, 1)))
    assert ">2021-06-01</text>" in svg
    assert ">2021-06-10</text>" in svg


def test_write_line_chart(tmp_path):
    s = series([0.5, -0.5, 0.25])
    path = tmp_path / "chart.svg"
    write_line_chart(s, str(path), title="x")
    assert path.read_text() == line_chart_svg(s, title="x")


@pytest.mark.parametrize("values", [
    [-1e308, 1e308],      # the range's width overflows, so both padded ends are infinite
    [-8.5e307, 8.5e307],  # both ends finite, only hi - lo overflows
    [-8e307, 8e307],      # hi - lo finite, only its product with the plot height overflows
    [1.7e308, 1.7e308],   # a constant series padded past the largest float
], ids=["infinite-ends", "infinite-width", "infinite-scaled-width", "constant-padded-past-max"])
def test_range_beyond_float_range_is_numerical_error(values, tmp_path):
    with pytest.raises(NumericalError, match="spans more than float range"):
        line_chart_svg(series(values))
    path = tmp_path / "chart.svg"
    with pytest.raises(NumericalError):
        write_line_chart(series(values), str(path))
    assert not path.exists()


def test_wide_finite_range_draws_without_nan():
    svg = line_chart_svg(series([-1e305, 1e305]))
    assert "nan" not in svg and "inf" not in svg


@pytest.mark.parametrize("labels", [{"title": "S&P 500 <ERP>"}, {"y_label": "S&P 500 <ERP>"}],
                         ids=["title", "y_label"])
def test_text_is_escaped(labels):
    svg = line_chart_svg(series([1.0, -1.0, 2.0]), **labels)
    texts = minidom.parseString(svg).getElementsByTagName("text")
    assert "S&P 500 <ERP>" in [t.firstChild.data for t in texts]
