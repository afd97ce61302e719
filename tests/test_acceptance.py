"""Acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them) and then asserts, so a red run still shows which criterion broke.
Expected values come from independent recomputation: truncated series
sums, exact rational means, plain-Python re-implementations.
"""

import math
import os
import time
from datetime import date
from fractions import Fraction

import numpy as np
import pytest

from erp_lab.averaging import AveragingMethod, arithmetic_mean, geometric_mean
from erp_lab.capm import (
    capm_expected_return,
    portfolio_risk_premium,
    simulate_diversification,
)
from erp_lab.cli import main
from erp_lab.historical import erp_report, historical_erp, premium_series
from erp_lab.implied import (
    GordonInputs,
    TwoStageInputs,
    earnings_implied_k,
    gordon_implied_k,
    gordon_price,
    two_stage_implied_k,
    two_stage_price,
)
from erp_lab.io import SeriesFileSpec, parse_series
from erp_lab.timeseries import ReturnSeries

ARITH = AveragingMethod.arithmetic()
GEOM = AveragingMethod.geometric()


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {name}: {status}{suffix}")


def _returns_from(path, value_column="return"):
    s = parse_series(SeriesFileSpec(str(path), value_column=value_column))
    return ReturnSeries(s.dates, s.values)


def test_01_mean_inequality():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    ok = True
    for i in range(1000):
        n = int(rng.integers(1, 201))
        if i % 10 == 0:
            arr = np.full(n, float(rng.uniform(-0.9, 3.0)))
        else:
            arr = rng.uniform(-0.9, 3.0, n)
        a = arithmetic_mean(arr)
        g = geometric_mean(arr)
        if g > a + 1e-12:
            ok = False
        all_equal = np.all(arr == arr[0])
        if all_equal != (abs(a - g) <= 1e-12):
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _line(1, "mean inequality", ok, f"1000 vectors, {elapsed:.2f} s")
    assert ok


def test_02_gordon_truncated_sum_oracle():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    n_terms = 1_000_000
    tiny = np.finfo(float).tiny
    worst = 0.0
    for _ in range(100):
        d = float(rng.uniform(0.5, 50.0))
        g = float(rng.uniform(-0.05, 0.12))
        k = g + float(rng.uniform(0.005, 0.5))
        # sum of d*(1+g)^t/(1+k)^t as running products of the ratio, ended
        # at the first product below the smallest normal float: the
        # subnormal rest adds under 1e-300 and is slow to compute
        ratio = (1.0 + g) / (1.0 + k)
        products = np.cumprod(np.full(min(n_terms, int(np.log(tiny) / np.log(ratio)) + 2),
                                      ratio))
        terms = d * products[:np.argmax(products < tiny)]
        truncated = float(terms.sum())
        closed = gordon_price(GordonInputs(d, g, k))
        worst = max(worst, abs(truncated - closed) / closed)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    _line(2, "gordon equals the truncated series", ok,
          f"worst rel err {worst:.1e}, {elapsed:.1f} s")
    assert ok


def test_03_gordon_round_trip():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        d = float(rng.uniform(0.5, 50.0))
        g = float(rng.uniform(-0.05, 0.12))
        k = g + float(rng.uniform(0.005, 0.5))
        price = gordon_price(GordonInputs(d, g, k))
        worst = max(worst, abs(gordon_implied_k(price, d, g) - k))
    ok = worst <= 1e-12
    _line(3, "gordon price/implied-k round trip", ok, f"worst |dk| {worst:.1e}")
    assert ok


def test_04_two_stage_solver():
    rng = np.random.default_rng(104)
    worst_reprice = 0.0
    for _ in range(100):
        inputs = TwoStageInputs(
            dividend_now=float(rng.uniform(0.5, 10.0)),
            short_growth=float(rng.uniform(-0.05, 0.25)),
            short_years=int(rng.integers(0, 21)),
            long_growth=float(rng.uniform(0.0, 0.05)),
        )
        k_true = inputs.long_growth + float(rng.uniform(0.01, 0.3))
        price = two_stage_price(inputs, k_true)
        k = two_stage_implied_k(price, inputs)
        # independent re-pricing: explicit dividend path, 10,000 terms
        growth = np.where(np.arange(1, 10_001) <= inputs.short_years,
                          inputs.short_growth, inputs.long_growth)
        divs = inputs.dividend_now * np.cumprod(1.0 + growth)
        discount = np.cumprod(np.full(10_000, 1.0 / (1.0 + k)))
        pv = float(np.sum(divs * discount))
        worst_reprice = max(worst_reprice, abs(pv - price) / price)

    worst_degenerate = 0.0
    for _ in range(20):
        d = float(rng.uniform(0.5, 10.0))
        g = float(rng.uniform(0.0, 0.05))
        k_true = g + float(rng.uniform(0.01, 0.3))
        for inputs in (TwoStageInputs(d, g, 5, g), TwoStageInputs(d, 0.2, 0, g)):
            price = two_stage_price(inputs, k_true)
            k = two_stage_implied_k(price, inputs)
            worst_degenerate = max(
                worst_degenerate, abs(k - gordon_implied_k(price, d, g)))

    ok = worst_reprice < 1e-6 and worst_degenerate < 1e-9
    _line(4, "two-stage solver", ok,
          f"reprice rel {worst_reprice:.1e}, degenerate |dk| {worst_degenerate:.1e}")
    assert ok


def test_05_payout_independence():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(1000):
        eps = float(rng.uniform(1.0, 100.0))
        p = float(rng.uniform(0.01, 1.0))
        k = float(rng.uniform(0.01, 0.5))
        price = eps * p / (k - k * (1.0 - p))
        worst = max(worst, abs(earnings_implied_k(price, eps) - k))
    ok = worst <= 1e-12
    _line(5, "payout ratio cancels from earnings model", ok, f"worst |dk| {worst:.1e}")
    assert ok


def test_06_capm_identity():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(1000):
        rf = float(rng.uniform(-0.1, 0.1))
        beta = float(rng.uniform(-3.0, 3.0))
        erm = float(rng.uniform(-0.2, 0.3))
        lhs = capm_expected_return(rf, beta, erm) - rf
        rhs = portfolio_risk_premium(beta, erm - rf)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-12
    _line(6, "CAPM premium identity", ok, f"worst |diff| {worst:.1e}")
    assert ok


def test_07_diversification_clt():
    sigma_eps = 0.30
    ok = True
    observed = {}
    for n in (1, 4, 16, 64, 100):
        _, unsys = simulate_diversification(
            n_assets=n, beta=1.0, sigma_m=0.04, sigma_eps=sigma_eps,
            n_periods=10_000, seed=107)
        observed[n] = unsys
        target = sigma_eps / math.sqrt(n)
        if abs(unsys - target) / target > 0.15:
            ok = False
    _line(7, "unsystematic risk shrinks as 1/sqrt(n)", ok,
          f"n=100 gives {observed[100]:.4f} vs 0.03")
    assert ok


def test_08_inflation_invariance(annual_paths):
    equity = _returns_from(annual_paths["equity"])
    window = (2000, 2009)
    ok = True
    details = []
    for label in ("tbills", "tbonds"):
        riskfree = _returns_from(annual_paths[label])
        base_series = premium_series(equity, riskfree)
        base_est = historical_erp(equity, riskfree, window, ARITH)
        for c in (0.01, 0.05):
            eq_shift = ReturnSeries(equity.dates, equity.values + c)
            rf_shift = ReturnSeries(riskfree.dates, riskfree.values + c)
            shifted = premium_series(eq_shift, rf_shift)
            if not (shifted.dates == base_series.dates
                    and np.array_equal(shifted.values, base_series.values)):
                ok = False
            delta = abs(historical_erp(eq_shift, rf_shift, window, ARITH).premium
                        - base_est.premium)
            details.append(delta)
            if delta >= 1e-12:
                ok = False
    _line(8, "premium invariant to uniform shifts", ok,
          f"series exactly equal, max |d_est| {max(details):.1e}")
    assert ok


def _implied_argv(daily_paths, output):
    return [
        "implied",
        "--prices", str(daily_paths["prices"]), "--prices-value-column", "close",
        "--eps", str(daily_paths["eps"]), "--eps-value-column", "eps",
        "--yields", str(daily_paths["yields"]), "--yields-value-column", "rate",
        "--yields-scale", "0.01",
        "--ema-period", "50",
        "--output", output,
    ]


def _read_output(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            cells = line.strip().split(",")
            rows.append((date.fromisoformat(cells[0]),
                         [float(c) for c in cells[1:]]))
    return header, rows


def test_09_pipeline_sign_behavior(daily_paths, tmp_path):
    out = str(tmp_path / "erp.csv")
    code = main(_implied_argv(daily_paths, out))
    assert code == 0
    header, rows = _read_output(out)
    assert header == ["date", "price", "eps_smoothed", "yield", "erp"]

    # independent plain-Python pipeline: carry forward, EMA, subtract
    def read(path, col, scale=1.0):
        out = {}
        with open(path, encoding="utf-8") as fh:
            names = fh.readline().strip().split(",")
            for line in fh:
                cells = line.strip().split(",")
                out[date.fromisoformat(cells[0])] = float(cells[names.index(col)]) * scale
        return out

    prices = read(daily_paths["prices"], "close")
    eps_q = sorted(read(daily_paths["eps"], "eps").items())
    yields = read(daily_paths["yields"], "rate", scale=0.01)
    alpha = 2.0 / 51.0
    acc = None
    expected_sign = {}
    for day in sorted(prices):
        latest = [v for d, v in eps_q if d <= day][-1]
        acc = latest if acc is None else acc + alpha * (latest - acc)
        expected_sign[day] = (acc / prices[day] - yields[day]) < 0.0

    negatives = {d for d, cells in rows if cells[3] < 0.0}
    expected_negatives = {d for d, neg in expected_sign.items() if neg}
    n_pos = len(rows) - len(negatives)
    ok = (negatives == expected_negatives
          and len(negatives) > 0 and n_pos > 0)
    _line(9, "negative premium exactly when earnings yield < bond yield", ok,
          f"{len(negatives)} negative days of {len(rows)}")
    assert ok


FROZEN_GRID = {
    # window -> riskfree -> (arithmetic, geometric); exact rational means
    # converted to float (arithmetic) and exact products rooted in float
    # (geometric), computed away from the library
    (2000, 2004): {
        "tbills": (0.008000000000000004, -0.0003720413431866909),
        "tbonds": (-0.04000000000000001, -0.04853749525644724),
    },
    (2000, 2009): {
        "tbills": (0.021000000000000005, 0.0059873797466794),
        "tbonds": (-0.008999999999999994, -0.02318121132131723),
    },
}


def test_10_bundled_report_grid(annual_paths):
    equity = _returns_from(annual_paths["equity"])
    variants = [("tbills", _returns_from(annual_paths["tbills"])),
                ("tbonds", _returns_from(annual_paths["tbonds"]))]
    report = erp_report(equity, variants, list(FROZEN_GRID), [ARITH, GEOM])
    worst = 0.0
    for wi, window in enumerate(report.windows):
        for ci, (label, method) in enumerate(report.columns):
            cell = report.cells[wi][ci]
            expected = FROZEN_GRID[window][label][0 if method is ARITH else 1]
            worst = max(worst, abs(cell.estimate.premium - expected))
    ok = worst <= 1e-12
    _line(10, "bundled 2x2x2 report grid", ok, f"worst |diff| {worst:.1e}")
    assert ok


# Damodaran's 1928-2008 annual return table, percent premiums over
# T.Bills / T.Bonds under arithmetic / geometric averaging.
TABLE_WINDOWS = {
    (1928, 2008): {"tbills": (0.0730, 0.0565), "tbonds": (0.0532, 0.0388)},
    (1967, 2008): {"tbills": (0.0514, 0.0333), "tbonds": (0.0377, 0.0229)},
    (1997, 2008): {"tbills": (-0.0252, -0.0626), "tbonds": (-0.0452, -0.0795)},
}


def test_10_conditional_table_reproduction():
    path = os.environ.get("ERP_LAB_HISTORICAL_DATA")
    if not path:
        pytest.skip("set ERP_LAB_HISTORICAL_DATA to a CSV with columns "
                    "date,stocks,tbills,tbonds (annual decimal returns) to run")
    equity = _returns_from(path, value_column="stocks")
    variants = [("tbills", _returns_from(path, value_column="tbills")),
                ("tbonds", _returns_from(path, value_column="tbonds"))]
    report = erp_report(equity, variants, list(TABLE_WINDOWS), [ARITH, GEOM])
    worst = 0.0
    for wi, window in enumerate(report.windows):
        for ci, (label, method) in enumerate(report.columns):
            got = report.cells[wi][ci].estimate.premium
            expected = TABLE_WINDOWS[window][label][0 if method is ARITH else 1]
            worst = max(worst, abs(got - expected))
    ok = worst <= 5e-4
    _line(10, "historical table reproduction (opt-in)", ok,
          f"worst |diff| {worst:.2e}, tolerance 5e-4")
    assert ok


def test_11_cli_determinism(daily_paths, tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    t0 = time.perf_counter()
    assert main(_implied_argv(daily_paths, str(first))) == 0
    assert main(_implied_argv(daily_paths, str(second))) == 0
    elapsed = time.perf_counter() - t0
    same_csv = first.read_bytes() == second.read_bytes()
    same_svg = (first.with_suffix(".svg").read_bytes()
                == second.with_suffix(".svg").read_bytes())
    ok = same_csv and same_svg
    _line(11, "byte-identical pipeline reruns", ok,
          f"two runs in {elapsed:.2f} s")
    assert ok
