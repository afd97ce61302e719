"""The implied-premium chart: one dated series as a self-contained SVG.

Hand-rolled on purpose: output must be byte-identical for identical
inputs (the only free-floating text is a fixed format-version comment),
which rules out plotting libraries that embed their own version strings
and generated ids.  Every text the chart holds is fixed here or is an
ISO date or a number, so none of it needs escaping.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError
from .io import _fixed_columns, _rows
from .timeseries import DatedSeries, _blocks

FORMAT_COMMENT = "<!-- erp-lab chart format 1 -->"

_WIDTH = 900
_HEIGHT = 420
_MARGIN_LEFT = 72.0
_MARGIN_RIGHT = 20.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 48.0
_TITLE = "Implied equity risk premium"
_Y_LABEL = "premium"
_COORD = "%.2f"
_coord = _COORD.__mod__


def _line(x1: float, y1: float, x2: float, y2: float, stroke="black", extra="") -> str:
    return (f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" x2="{_coord(x2)}" y2="{_coord(y2)}" '
            f'stroke="{stroke}" stroke-width="1"{extra}/>')


def _text(x: str, y: str, anchor: str, size: int, body: str, extra: str = "") -> str:
    """A text element at already formatted coordinates; ``body`` goes in
    unescaped, as no chart text holds ``&``, ``<`` or ``>``."""
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body}</text>')


def line_chart_svg(series: DatedSeries) -> bytes:
    """Render a daily implied premium as a 900 x 420 SVG line chart,
    titled "Implied equity risk premium", its y axis labeled "premium".

    X is calendar time (labeled with ISO dates), y the series value; a
    dashed zero line is drawn when zero falls inside the y range.

    Raises
    ------
    NumericalError
        The padded y range, or its width scaled to the plot height,
        exceeds float range: the chart would hold ``inf`` or ``nan``
        coordinates.
    """
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    # points are placed a block at a time, so no whole-series x or y is held
    days = series.days.view(np.int64)
    span_days = int(days[-1] - days[0]) or 1

    def x_at(rows) -> np.ndarray:
        return _MARGIN_LEFT + plot_w * (days[rows] - days[0]) / span_days

    vmin = float(series.values.min())
    vmax = float(series.values.max())
    if vmin == vmax:
        pad = abs(vmin) * 0.1 or 1.0
    else:
        pad = (vmax - vmin) * 0.05
    lo, hi = vmin - pad, vmax + pad
    # y_at multiplies by plot_h before it divides by the range width
    if not all(map(math.isfinite, (lo, hi, plot_h * (hi - lo)))):
        raise NumericalError(f"chart y range {lo:g} to {hi:g} spans more than float range")

    def y_at(v: float) -> float:
        return _MARGIN_TOP + plot_h * (hi - v) / (hi - lo)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        FORMAT_COMMENT,
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        _text(_coord(_WIDTH / 2), "20", "middle", 14, _TITLE),
    ]

    axis_bottom = _MARGIN_TOP + plot_h
    axis_right = _MARGIN_LEFT + plot_w
    out.append(
        f'<path d="M {_coord(_MARGIN_LEFT)} {_coord(_MARGIN_TOP)} '
        f'L {_coord(_MARGIN_LEFT)} {_coord(axis_bottom)} '
        f'L {_coord(axis_right)} {_coord(axis_bottom)}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )

    # y ticks: five evenly spaced values
    for i in range(5):
        v = lo + (hi - lo) * i / 4
        y = y_at(v)
        out += [_line(_MARGIN_LEFT - 4, y, _MARGIN_LEFT, y),
                _text(_coord(_MARGIN_LEFT - 8), _coord(y + 4), "end", 11, f"{v:.6g}")]

    # x ticks: up to five dates spread across the sample
    n = len(series)
    tick_indexes = sorted({round(i * (n - 1) / 4) for i in range(5)})
    for idx in tick_indexes:
        x = x_at(idx)
        out += [_line(x, axis_bottom, x, axis_bottom + 4),
                _text(_coord(x), _coord(axis_bottom + 18), "middle", 11, str(series.days[idx]))]

    if lo < 0.0 < hi:
        zero_y = y_at(0.0)
        out.append(_line(_MARGIN_LEFT, zero_y, axis_right, zero_y, stroke="grey",
                         extra=' stroke-dasharray="4 3"'))

    # each point is "x,y " and the last one's space goes
    points = [_rows(_fixed_columns([x_at(rows), y_at(series.values[rows])], _COORD), b",", b" ")
              for rows in _blocks(n)]
    points[-1] = points[-1][:-1]
    out.append('<polyline points="')
    mid_y = _coord(_MARGIN_TOP + plot_h / 2)
    tail = [
        '" fill="none" stroke="steelblue" stroke-width="1.5"/>',
        _text(_coord(_MARGIN_LEFT + plot_w / 2), _coord(_HEIGHT - 8), "middle", 12, "date"),
        _text("14", mid_y, "middle", 12, _Y_LABEL, extra=f' transform="rotate(-90 14 {mid_y})"'),
        "</svg>\n",
    ]
    return b"".join(["\n".join(out).encode(), *points, "\n".join(tail).encode()])
