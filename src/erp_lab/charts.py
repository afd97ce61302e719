"""Self-contained SVG line charts.

Hand-rolled on purpose: output must be byte-identical for identical
inputs (the only free-floating text is a fixed format-version comment),
which rules out plotting libraries that embed their own version strings
and generated ids.
"""

from __future__ import annotations

import numpy as np

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


def line_chart_svg(series: DatedSeries, title: str = "", y_label: str = "value",
                   width: int = 900, height: int = 420) -> str:
    """Render a single dated series as an SVG line chart.

    X is calendar time (labeled with ISO dates), y the series value; a
    dashed zero line is drawn when zero falls inside the y range.
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

    def y_at(v: float) -> float:
        return _MARGIN_TOP + plot_h * (hi - v) / (hi - lo)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        FORMAT_COMMENT,
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{_coord(width / 2)}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )

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
        out.append(
            f'<line x1="{_coord(_MARGIN_LEFT - 4)}" y1="{_coord(y)}" '
            f'x2="{_coord(_MARGIN_LEFT)}" y2="{_coord(y)}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_coord(_MARGIN_LEFT - 8)}" y="{_coord(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_label(v)}</text>'
        )

    # x ticks: up to five dates spread across the sample
    n = len(series)
    tick_indexes = sorted({round(i * (n - 1) / 4) for i in range(5)})
    for idx in tick_indexes:
        d = series.days[idx]
        x = xs[idx]
        out.append(
            f'<line x1="{_coord(x)}" y1="{_coord(axis_bottom)}" '
            f'x2="{_coord(x)}" y2="{_coord(axis_bottom + 4)}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_coord(x)}" y="{_coord(axis_bottom + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{d}</text>'
        )

    if lo < 0.0 < hi:
        zero_y = y_at(0.0)
        out.append(
            f'<line x1="{_coord(_MARGIN_LEFT)}" y1="{_coord(zero_y)}" '
            f'x2="{_coord(axis_right)}" y2="{_coord(zero_y)}" '
            f'stroke="grey" stroke-width="1" stroke-dasharray="4 3"/>'
        )

    points = " ".join(
        f"{_coord(x)},{_coord(y_at(v))}" for x, v in zip(xs, series.values.tolist())
    )
    out.append(
        f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="1.5"/>'
    )

    out.append(
        f'<text x="{_coord(_MARGIN_LEFT + plot_w / 2)}" y="{_coord(height - 8)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">date</text>'
    )
    out.append(
        f'<text x="14" y="{_coord(_MARGIN_TOP + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {_coord(_MARGIN_TOP + plot_h / 2)})">{y_label}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_line_chart(series: DatedSeries, path: str, **kwargs) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(line_chart_svg(series, **kwargs))
