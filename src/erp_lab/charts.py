"""Self-contained SVG line charts.

Hand-rolled on purpose: output must be byte-identical for identical
inputs (the only free-floating text is a fixed format-version comment),
which rules out plotting libraries that embed their own version strings
and generated ids.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError
from .io import write_text
from .timeseries import DatedSeries

FORMAT_COMMENT = "<!-- erp-lab chart format 1 -->"

_MARGIN_LEFT = 72.0
_MARGIN_RIGHT = 20.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 48.0


def _coord(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.6g}"


def _line(x1: float, y1: float, x2: float, y2: float, stroke="black", extra="") -> str:
    return (f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" x2="{_coord(x2)}" y2="{_coord(y2)}" '
            f'stroke="{stroke}" stroke-width="1"{extra}/>')


def _text(x: str, y: str, anchor: str, size: int, body: str, extra: str = "") -> str:
    """A text element at already formatted coordinates; ``body`` is escaped."""
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body}</text>')


def line_chart_svg(series: DatedSeries, title: str = "", y_label: str = "value",
                   width: int = 900, height: int = 420) -> str:
    """Render a single dated series as an SVG line chart.

    X is calendar time (labeled with ISO dates), y the series value; a
    dashed zero line is drawn when zero falls inside the y range.

    Raises
    ------
    NumericalError
        The padded y range, or its width scaled to the plot height,
        exceeds float range: the chart would hold ``inf`` or ``nan``
        coordinates.
    """
    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM

    offsets = (series.days - series.days[0]).astype(np.int64)
    span_days = int(offsets[-1]) or 1
    xs = (_MARGIN_LEFT + plot_w * offsets / span_days).tolist()
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
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        FORMAT_COMMENT,
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(_text(_coord(width / 2), "20", "middle", 14, title))

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
                _text(_coord(_MARGIN_LEFT - 8), _coord(y + 4), "end", 11, _tick_label(v))]

    # x ticks: up to five dates spread across the sample
    n = len(series)
    tick_indexes = sorted({round(i * (n - 1) / 4) for i in range(5)})
    for idx in tick_indexes:
        x = xs[idx]
        out += [_line(x, axis_bottom, x, axis_bottom + 4),
                _text(_coord(x), _coord(axis_bottom + 18), "middle", 11, str(series.days[idx]))]

    if lo < 0.0 < hi:
        zero_y = y_at(0.0)
        out.append(_line(_MARGIN_LEFT, zero_y, axis_right, zero_y, stroke="grey",
                         extra=' stroke-dasharray="4 3"'))

    # y_at over the whole array; Python's float arithmetic neither warns
    # nor traps, so neither may this
    with np.errstate(all="ignore"):
        ys = y_at(series.values)
    points = " ".join(map("%.2f,%.2f".__mod__, zip(xs, ys.tolist())))
    out.append(
        f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="1.5"/>'
    )

    out.append(_text(_coord(_MARGIN_LEFT + plot_w / 2), _coord(height - 8), "middle", 12, "date"))
    mid_y = _coord(_MARGIN_TOP + plot_h / 2)
    out.append(_text("14", mid_y, "middle", 12, y_label,
                     extra=f' transform="rotate(-90 14 {mid_y})"'))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_line_chart(series: DatedSeries, path: str, **kwargs) -> None:
    write_text(path, line_chart_svg(series, **kwargs))
