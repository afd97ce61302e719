"""Tests for the deterministic SVG chart of the implied premium."""

import sys
from datetime import date, timedelta
from unittest import mock
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erp_lab import charts, timeseries
from erp_lab.charts import FORMAT_COMMENT, line_chart_svg
from erp_lab.errors import NumericalError
from erp_lab.io import _fixed
from erp_lab.timeseries import DatedSeries


def series(values, start=date(2020, 1, 1)):
    dates = tuple(start + timedelta(days=i) for i in range(len(values)))
    return DatedSeries(dates, np.asarray(values, dtype=float))


def test_contains_format_comment_and_axes():
    svg = line_chart_svg(series([1.0, 2.0, 3.0]))
    assert svg.startswith(b"<svg ")
    assert FORMAT_COMMENT.encode() in svg
    assert b">Implied equity risk premium</text>" in svg
    assert b">premium</text>" in svg
    assert b">date</text>" in svg


def test_polyline_has_one_point_per_observation():
    n = 37
    svg = line_chart_svg(series(list(np.linspace(0.0, 1.0, n)))).decode()
    polyline = [line for line in svg.splitlines() if line.startswith("<polyline")][0]
    points = polyline.split('points="')[1].split('"')[0]
    assert len(points.split()) == n


def test_deterministic_output():
    s = series(list(np.sin(np.arange(100) / 7.0)))
    assert line_chart_svg(s) == line_chart_svg(s)


def test_zero_line_drawn_only_when_crossing():
    crossing = line_chart_svg(series([-1.0, 1.0])).decode()
    positive = line_chart_svg(series([1.0, 2.0])).decode()
    assert "stroke-dasharray" in crossing
    assert "stroke-dasharray" not in positive


def test_constant_series_has_padded_range():
    svg = line_chart_svg(series([2.0, 2.0, 2.0])).decode()
    assert "<polyline" in svg


def test_x_tick_labels_are_iso_dates():
    svg = line_chart_svg(series([1.0] * 10, start=date(2021, 6, 1))).decode()
    assert ">2021-06-01</text>" in svg
    assert ">2021-06-10</text>" in svg


@pytest.mark.parametrize("values", [
    [-1e308, 1e308],      # the range's width overflows, so both padded ends are infinite
    [-8.5e307, 8.5e307],  # both ends finite, only hi - lo overflows
    [-8e307, 8e307],      # hi - lo finite, only its product with the plot height overflows
    [1.7e308, 1.7e308],   # a constant series padded past the largest float
], ids=["infinite-ends", "infinite-width", "infinite-scaled-width", "constant-padded-past-max"])
def test_range_beyond_float_range_is_numerical_error(values):
    with pytest.raises(NumericalError, match="spans more than float range"):
        line_chart_svg(series(values))


def test_wide_finite_range_draws_without_nan():
    svg = line_chart_svg(series([-1e305, 1e305])).decode()
    assert "nan" not in svg and "inf" not in svg


# each example's values lie within one magnitude, from subnormal to the
# largest float, so that both drawable and refused ranges come up
MAGNITUDES = [5e-324, 2.2e-308, 1.0, 1e300, 8e307, 8.5e307, 1.7e308, sys.float_info.max]


@st.composite
def chart_series(draw):
    # hypothesis draws the distinct values; a seeded generator spreads them
    # over up to 300 days with gaps of 1-10 days
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    m = draw(st.sampled_from(MAGNITUDES))
    pool = draw(st.lists(st.one_of(st.floats(-m, m), st.sampled_from([0.0, m, -m])),
                         min_size=1, max_size=8))
    days = np.datetime64("2000-01-01") + np.cumsum(rng.integers(1, 11, n))
    return DatedSeries(days, rng.choice(pool, n))


@settings(max_examples=300, deadline=None)
@given(chart_series())
def test_chart_draws_every_point_or_refuses_the_range(s):
    # the CLI renders the chart with numpy's float errors raising
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            svg = line_chart_svg(s).decode()
        except NumericalError as exc:
            assert str(exc).endswith("spans more than float range")
            # |v| < 2e305 keeps 338 * 1.1 * (vmax - vmin) below the largest float
            assert np.abs(s.values).max() >= 2e305
            return
    assert "nan" not in svg and "inf" not in svg
    doc = minidom.parseString(svg)
    texts = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    assert "Implied equity risk premium" in texts and "premium" in texts
    (polyline,) = doc.getElementsByTagName("polyline")
    points = [tuple(map(float, p.split(","))) for p in polyline.getAttribute("points").split()]
    assert len(points) == len(s)
    # every point inside the plot area (margins 72/20 across, 34/48 down)
    assert all(72.0 <= x <= 880.0 and 34.0 <= y <= 372.0 for x, y in points)


def assert_polyline_is_percent_join(s):
    """The polyline holds ``"%.2f,%.2f"`` of each point, joined by spaces,
    for the coordinates the chart hands its formatter."""
    formatted = []

    def recording(values, fmt):
        formatted.append(values.copy())
        return _fixed(values, fmt)

    with mock.patch.object(charts, "_fixed", recording):
        svg = line_chart_svg(s).decode()
    xs, ys = np.concatenate(formatted[::2]), np.concatenate(formatted[1::2])
    assert len(xs) == len(ys) == len(s)
    points = " ".join("%.2f,%.2f" % point for point in zip(xs.tolist(), ys.tolist()))
    assert f'<polyline points="{points}" ' in svg
    return xs


def test_polyline_matches_percent_join_across_blocks():
    # over 6,464 days each day's x is 72 + day / 8, so odd days fall on a
    # tie at two decimals, which only % formats
    rng = np.random.default_rng(3)
    days = np.datetime64("2000-01-01") + np.arange(6465)
    xs = assert_polyline_is_percent_join(DatedSeries(days, rng.normal(0.05, 0.02, days.size)))
    assert np.count_nonzero(xs * 100 % 1 == 0.5) == 3232


@settings(max_examples=200, deadline=None)
@given(chart_series())
def test_polyline_matches_percent_join(s):
    try:
        assert_polyline_is_percent_join(s)
    except NumericalError:
        pass


def whole_array_coordinates(s):
    """Every point's x and y, each computed over the whole array: days
    across the 808-pixel plot from x = 72, values down the 338-pixel plot
    from y = 34 over their range padded by 5% at each end."""
    offsets = (s.days - s.days[0]).astype(np.int64)
    xs = 72.0 + 808.0 * offsets / int(offsets[-1])
    vmin, vmax = float(s.values.min()), float(s.values.max())
    lo, hi = vmin - (vmax - vmin) * 0.05, vmax + (vmax - vmin) * 0.05
    return xs, 34.0 + 338.0 * (hi - s.values) / (hi - lo)


def test_coordinates_across_blocks_match_the_whole_array():
    # 9,500 points over irregular gaps: three blocks, the x ticks in each
    rng = np.random.default_rng(11)
    days = np.datetime64("1990-01-01") + np.cumsum(rng.integers(1, 4, 9500))
    s = DatedSeries(days, rng.normal(0.04, 0.03, days.size))
    svg = line_chart_svg(s)
    with mock.patch.object(timeseries, "_BLOCK", len(s)):
        assert line_chart_svg(s) == svg
    xs, ys = whole_array_coordinates(s)
    points = " ".join("%.2f,%.2f" % point for point in zip(xs.tolist(), ys.tolist()))
    assert f'<polyline points="{points}" '.encode() in svg
    for i in sorted({round(k * (len(s) - 1) / 4) for k in range(5)}):
        assert f'<line x1="{xs[i]:.2f}" y1="372.00" x2="{xs[i]:.2f}" y2="376.00"'.encode() in svg
