"""The command line against the benchmark's independent oracle.

Small random inputs laid out as ``benches/generate.py`` writes them (same
file names, headers, value formats, percent yields and levels) go through
``main()``; ``benches/oracle.py``, which recomputes every output value in
plain Python without numpy or ``erp_lab``, checks the files it writes.  The
oracle is imported from ``benches/``, so there is one oracle.
"""

import contextlib
import importlib.util
import io
import os
import tempfile
from datetime import date, timedelta
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from erp_lab.cli import EXIT_OK, main

_ORACLE_PATH = Path(__file__).resolve().parents[1] / "benches" / "oracle.py"
_spec = importlib.util.spec_from_file_location("bench_oracle", _ORACLE_PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

METHODS = ["arithmetic", "geometric", "blume:2", "blume:5", "exp:0.95", "exp:0.5"]
LONGEST_HORIZON = 5


def write_csv(directory, name, header, rows):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n" + "".join(row + "\n" for row in rows))
    return {"path": path, "rows": len(rows)}


def two_decimals(lo, hi):
    return st.floats(lo, hi).map(lambda x: f"{x:.2f}")


@st.composite
def implied_inputs(draw):
    """Rows of calendar-daily prices, EPS from the first price date on, and
    percent yields with some dates missing; tens of rows."""
    n = draw(st.integers(2, 60))
    start = draw(st.dates(date(1900, 1, 1), date(2009, 1, 1)))
    days = [(start + timedelta(days=i)).isoformat() for i in range(n)]
    prices = draw(st.lists(two_decimals(20, 5000), min_size=n, max_size=n))
    eps_every = draw(st.integers(1, 30))
    eps = [f"{days[i]},{draw(two_decimals(0.01, 600))}" for i in range(0, n, eps_every)]
    kept = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    kept[draw(st.integers(0, n - 1))] = True
    rates = draw(st.lists(two_decimals(1, 12), min_size=n, max_size=n))
    return {
        "prices": [f"{d},{p}" for d, p in zip(days, prices)],
        "eps": eps,
        "yields": [f"{d},{r}" for d, r, keep in zip(days, rates, kept) if keep],
        "ema_period": draw(st.integers(1, 60)),
    }


@st.composite
def historical_inputs(draw):
    """Year-end equity levels, annual tbills and tbonds returns, and windows
    that hold either no return or at least ``LONGEST_HORIZON`` of them (the
    oracle blends any sample; the report leaves a shorter one ``NA``)."""
    first = draw(st.integers(1900, 1990))
    n_returns = draw(st.integers(LONGEST_HORIZON, 30))
    years = range(first, first + n_returns + 1)
    levels = draw(st.lists(two_decimals(1, 10_000), min_size=len(years), max_size=len(years)))
    returns = st.floats(-0.5, 0.6).map(lambda x: f"{x:.4f}")
    tbills = draw(st.lists(returns, min_size=len(years), max_size=len(years)))
    tbonds = draw(st.lists(returns, min_size=len(years), max_size=len(years)))
    windows = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 3)) == 0:  # before any return: NA everywhere
            end = first - draw(st.integers(0, 5))
            windows.append((end - draw(st.integers(0, 5)), end))
            continue
        a = draw(st.integers(0, n_returns - LONGEST_HORIZON))
        b = draw(st.integers(a + LONGEST_HORIZON - 1, n_returns - 1))
        windows.append((first + 1 + a - draw(st.integers(0, 3)),
                        first + 1 + b + draw(st.integers(0, 3))))
    return {
        "equity": [f"{y}-12-31,{v}" for y, v in zip(years, levels)],
        "tbills": [f"{y}-12-31,{v}" for y, v in zip(years, tbills)],
        "tbonds": [f"{y}-12-31,{v}" for y, v in zip(years, tbonds)],
        "windows": windows,
        "methods": draw(st.lists(st.sampled_from(METHODS), min_size=1, max_size=4,
                                 unique=True)),
    }


def run_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@given(inputs=implied_inputs())
@settings(max_examples=40, deadline=None)
def test_implied_matches_oracle(inputs):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {
            "files": {
                "prices": write_csv(tmp, "prices.csv", "date,close", inputs["prices"]),
                "eps": write_csv(tmp, "eps.csv", "date,eps", inputs["eps"]),
                "yields": write_csv(tmp, "yields.csv", "date,rate", inputs["yields"]),
            },
            "ema_period": inputs["ema_period"],
            "yields_scale": 0.01,
        }
        files = {name: info["path"] for name, info in manifest["files"].items()}
        out = os.path.join(tmp, "erp.csv")
        code, stderr = run_main([
            "implied",
            "--prices", files["prices"], "--prices-value-column", "close",
            "--eps", files["eps"], "--eps-value-column", "eps",
            "--yields", files["yields"], "--yields-value-column", "rate",
            "--yields-scale", str(manifest["yields_scale"]),
            "--ema-period", str(manifest["ema_period"]),
            "--output", out,
        ])
        assert (code, stderr) == (EXIT_OK, "")
        csv_text = Path(out).read_text(encoding="utf-8")
        svg_text = Path(out).with_suffix(".svg").read_text(encoding="utf-8")
        assert oracle.check_implied(oracle.expected_implied(manifest), csv_text, svg_text) == []


@given(inputs=historical_inputs())
@settings(max_examples=40, deadline=None)
def test_historical_matches_oracle(inputs):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {
            "files": {
                "equity": write_csv(tmp, "equity.csv", "date,level", inputs["equity"]),
                "tbills": write_csv(tmp, "tbills.csv", "date,return", inputs["tbills"]),
                "tbonds": write_csv(tmp, "tbonds.csv", "date,return", inputs["tbonds"]),
            },
            "windows": inputs["windows"],
            "methods": inputs["methods"],
        }
        files = {name: info["path"] for name, info in manifest["files"].items()}
        out = os.path.join(tmp, "report.csv")
        argv = ["historical",
                "--equity", files["equity"],
                "--equity-value-column", "level", "--equity-kind", "levels",
                "--riskfree", f"tbills={files['tbills']}",
                "--riskfree", f"tbonds={files['tbonds']}",
                "--riskfree-value-column", "return",
                "--output", out]
        for start, end in manifest["windows"]:
            argv += ["--window", f"{start}-{end}"]
        for method in manifest["methods"]:
            argv += ["--method", method]
        code, stderr = run_main(argv)
        assert code == EXIT_OK, stderr
        report = Path(out).read_text(encoding="utf-8")
        assert oracle.check_historical(oracle.expected_historical(manifest), report, stderr) == []
