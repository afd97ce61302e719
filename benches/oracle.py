"""Independent plain-Python oracle for the benchmark's CLI outputs.

It reads the generated CSV files with its own parser and recomputes every
output value without numpy or ``erp_lab``: the date intersection, EPS
carried forward and smoothed, the premium, and each report cell under the
four averaging schemes.  ``check_*`` return a list of problems, empty when
the output is right.
"""

from __future__ import annotations

import csv
import math
from datetime import date

TOLERANCE = 1e-9
IMPLIED_HEADER = "date,price,eps_smoothed,yield,erp"
SVG_FORMAT_COMMENT = "<!-- erp-lab chart format 1 -->"
WARNING_PREFIX = "erp-lab: warning: "


def read_series(path: str, value_column: str, scale: float = 1.0) -> dict[date, float]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {date.fromisoformat(row["date"]): float(row[value_column]) * scale
                for row in csv.DictReader(fh)}


def close(got: float, want: float) -> bool:
    return abs(got - want) <= TOLERANCE


# -- implied ------------------------------------------------------------------

def expected_implied(manifest: dict) -> list[tuple[date, float, float, float, float]]:
    """Rows (date, price, smoothed eps, yield, premium) the pipeline must emit."""
    files = manifest["files"]
    prices = read_series(files["prices"]["path"], "close")
    eps = sorted(read_series(files["eps"]["path"], "eps").items())
    yields = read_series(files["yields"]["path"], "rate", manifest["yields_scale"])

    # carry the latest EPS forward over the whole price calendar, then smooth
    alpha = 2.0 / (manifest["ema_period"] + 1.0)
    smoothed, j, acc = {}, -1, None
    for day in sorted(prices):
        while j + 1 < len(eps) and eps[j + 1][0] <= day:
            j += 1
        x = eps[j][1]
        acc = x if acc is None else acc + alpha * (x - acc)
        smoothed[day] = acc

    return [(d, prices[d], smoothed[d], yields[d], smoothed[d] / prices[d] - yields[d])
            for d in sorted(prices.keys() & yields.keys())]


def check_implied(expected: list, csv_text: str, svg_text: str) -> list[str]:
    lines = csv_text.splitlines()
    if not lines or lines[0] != IMPLIED_HEADER:
        return [f"implied header is {lines[:1]!r}, want {IMPLIED_HEADER!r}"]
    rows = lines[1:]
    if len(rows) != len(expected):
        return [f"implied output has {len(rows)} rows, want {len(expected)}"]
    problems = []
    for lineno, (line, want) in enumerate(zip(rows, expected), start=2):
        fields = line.split(",")
        if len(fields) != 5 or fields[0] != want[0].isoformat():
            problems.append(f"line {lineno}: {line!r} is not dated {want[0]}")
        elif not all(close(float(g), w) for g, w in zip(fields[1:], want[1:])):
            problems.append(f"line {lineno}: {line!r} differs from {want}")
        if len(problems) >= 5:
            break

    svg_lines = svg_text.splitlines()
    if len(svg_lines) < 2 or not svg_lines[0].startswith("<svg ") \
            or svg_lines[1] != SVG_FORMAT_COMMENT or svg_lines[-1] != "</svg>":
        problems.append("svg does not open with the format comment or does not close")
    polylines = [s for s in svg_lines if s.startswith("<polyline points=")]
    if len(polylines) != 1 or polylines[0].count(",") != len(expected):
        problems.append(f"svg polyline does not hold one point per row ({len(expected)})")
    return problems


# -- historical ---------------------------------------------------------------

def arithmetic(xs: list[float]) -> float:
    return math.fsum(xs) / len(xs)


def geometric(xs: list[float]) -> float:
    return math.prod(1.0 + x for x in xs) ** (1.0 / len(xs)) - 1.0


def blume(xs: list[float], horizon: int) -> float:
    t = len(xs)
    if t == 1:
        return xs[0]
    return ((t - horizon) * arithmetic(xs) + (horizon - 1) * geometric(xs)) / (t - 1)


def exp_weighted(xs: list[float], decay: float) -> float:
    weights = [decay ** (len(xs) - 1 - i) for i in range(len(xs))]
    return math.fsum(w * x for w, x in zip(weights, xs)) / math.fsum(weights)


def average(method: str, xs: list[float]) -> float:
    name, _, param = method.partition(":")
    if name == "arithmetic":
        return arithmetic(xs)
    if name == "geometric":
        return geometric(xs)
    if name == "blume":
        return blume(xs, int(param))
    return exp_weighted(xs, float(param))


def column_label(riskfree: str, method: str) -> str:
    name, _, param = method.partition(":")
    return f"{riskfree} {name}({float(param):g})" if param else f"{riskfree} {name}"


def expected_historical(manifest: dict) -> dict:
    """Header, window labels and cells (None where the window holds no
    data) of the report the command must write."""
    files = manifest["files"]
    levels = sorted(read_series(files["equity"]["path"], "level").items())
    equity = {d: p / prev - 1.0 for (_, prev), (d, p) in zip(levels, levels[1:])}
    labels = ("tbills", "tbonds")
    aligned = []
    for label in labels:
        rf = read_series(files[label]["path"], "return")
        aligned.append([(d.year, equity[d], rf[d]) for d in sorted(equity.keys() & rf.keys())])

    header = ["window"] + [column_label(label, m) for label in labels for m in manifest["methods"]]
    cells = []
    for start, end in manifest["windows"]:
        row = []
        for pairs in aligned:
            eq_in = [e for year, e, _ in pairs if start <= year <= end]
            rf_in = [r for year, _, r in pairs if start <= year <= end]
            for method in manifest["methods"]:
                row.append(average(method, eq_in) - average(method, rf_in) if eq_in else None)
        cells.append((f"{start}-{end}", row))
    return {"header": ",".join(header), "cells": cells}


def check_historical(expected: dict, csv_text: str, stderr_text: str) -> list[str]:
    lines = csv_text.splitlines()
    if not lines or lines[0] != expected["header"]:
        return [f"report header is {lines[:1]!r}, want {expected['header']!r}"]
    if len(lines) - 1 != len(expected["cells"]):
        return [f"report has {len(lines) - 1} windows, want {len(expected['cells'])}"]
    problems = []
    for line, (window, want) in zip(lines[1:], expected["cells"]):
        fields = line.split(",")
        if fields[0] != window or len(fields) != len(want) + 1:
            problems.append(f"report row {line[:40]!r} is not window {window}")
            continue
        for column, got, w in zip(expected["header"].split(",")[1:], fields[1:], want):
            if (got == "NA") != (w is None) or (w is not None and not close(float(got), w)):
                problems.append(f"{window} {column}: got {got}, want {w if w is not None else 'NA'}")
        if len(problems) >= 5:
            break
    n_missing = sum(w is None for _, row in expected["cells"] for w in row)
    n_warnings = sum(line.startswith(WARNING_PREFIX) for line in stderr_text.splitlines())
    if n_warnings != n_missing:
        problems.append(f"{n_warnings} warnings on stderr for {n_missing} NA cells")
    return problems
