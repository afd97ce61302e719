"""Deterministic inputs for the erp-lab benchmark workloads.

Plain Python on purpose, with no ``erp_lab`` import, like
``tests/data/generate.py``: the oracle reads these files with its own
parser, so the program under test and its checker share no code.  The
same seed gives byte-identical files.

    python3 benches/generate.py --workload implied-daily --seed 7 --out DIR

prints the row count and size of each file written.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from datetime import date, timedelta
from pathlib import Path

FIRST_YEAR = 1900
LAST_YEAR = 2009
METHODS = ["arithmetic", "geometric", "blume:5", "exp:0.95"]

# every 10-, 20-, ..., 110-year window inside the data, plus two outside it
ANNUAL_WINDOWS = [
    (start, start + length - 1)
    for length in range(10, LAST_YEAR - FIRST_YEAR + 2, 10)
    for start in range(FIRST_YEAR, LAST_YEAR - length + 2)
] + [(1850, 1859), (2050, 2059)]


def calendar_days() -> list[date]:
    first, last = date(FIRST_YEAR, 1, 1), date(LAST_YEAR, 12, 31)
    return [first + timedelta(days=i) for i in range((last - first).days + 1)]


def _write(path: Path, header: str, rows: list[str]) -> dict:
    text = header + "\n" + "".join(row + "\n" for row in rows)
    path.write_text(text, encoding="utf-8", newline="")
    return {"path": str(path), "rows": len(rows), "bytes": len(text.encode("utf-8"))}


def _bounded_walk(rng: random.Random, n: int, start: float, step: float,
                  lo: float, hi: float) -> list[float]:
    """Gaussian random walk reflected back into [lo, hi]."""
    out, x = [], start
    for _ in range(n):
        x += rng.gauss(0.0, step)
        if x < lo:
            x = 2 * lo - x
        elif x > hi:
            x = 2 * hi - x
        out.append(x)
    return out


def implied_daily(rng: random.Random, out: Path) -> dict:
    """Calendar-daily prices, quarterly EPS from 1900-01-01, and
    percent-quoted yields with about 3% of dates missing."""
    days = calendar_days()
    log_prices = _bounded_walk(rng, len(days), math.log(100.0), 0.008,
                               math.log(20.0), math.log(5000.0))
    prices = [round(math.exp(x), 2) for x in log_prices]
    price_rows = [f"{d.isoformat()},{p:.2f}" for d, p in zip(days, prices)]

    # quarter starts; the first one is the first price date, so carrying
    # EPS forward never needs a value from before the data
    eps_rows = []
    for i, d in enumerate(days):
        if d.day == 1 and d.month in (1, 4, 7, 10):
            earnings_yield = min(0.12, max(0.02, rng.gauss(0.06, 0.02)))
            eps_rows.append(f"{d.isoformat()},{max(0.01, prices[i] * earnings_yield):.2f}")

    yields = _bounded_walk(rng, len(days), 4.0, 0.05, 1.0, 12.0)
    yield_rows = [f"{d.isoformat()},{y:.2f}"
                  for d, y in zip(days, yields) if rng.random() >= 0.03]
    return {
        "files": {
            "prices": _write(out / "prices.csv", "date,close", price_rows),
            "eps": _write(out / "eps.csv", "date,eps", eps_rows),
            "yields": _write(out / "yields.csv", "date,rate", yield_rows),
        },
        "ema_period": 50,
        "yields_scale": 0.01,
    }


def _returns(rng: random.Random, n: int, mean: float, sd: float, digits: int) -> list[str]:
    return [f"{max(-0.5, rng.gauss(mean, sd)):.{digits}f}" for _ in range(n)]


def historical_annual(rng: random.Random, out: Path) -> dict:
    """Year-end equity price levels and annual riskfree returns, over every
    decade-multiple window plus two windows outside the data."""
    iso = [date(y, 12, 31).isoformat() for y in range(FIRST_YEAR, LAST_YEAR + 1)]
    level, levels = 100.0, []
    for _ in iso:
        levels.append(f"{level:.2f}")
        level = max(1.0, level * (1.0 + max(-0.6, rng.gauss(0.08, 0.18))))
    tbills = _returns(rng, len(iso), 0.035, 0.02, 4)
    tbonds = _returns(rng, len(iso), 0.05, 0.06, 4)
    return {
        "files": {
            "equity": _write(out / "equity.csv", "date,level",
                             [f"{d},{v}" for d, v in zip(iso, levels)]),
            "tbills": _write(out / "tbills.csv", "date,return",
                             [f"{d},{v}" for d, v in zip(iso, tbills)]),
            "tbonds": _write(out / "tbonds.csv", "date,return",
                             [f"{d},{v}" for d, v in zip(iso, tbonds)]),
        },
        "windows": ANNUAL_WINDOWS,
        "methods": METHODS,
    }


WORKLOADS = {
    "implied-daily": implied_daily,
    "historical-annual": historical_annual,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs under ``out`` and return its manifest:
    the files (path, data rows, bytes) and the run parameters."""
    out.mkdir(parents=True, exist_ok=True)
    # string seeding is stable across runs, unlike hash() of a tuple
    rng = random.Random(f"{workload}:{seed}")
    manifest = WORKLOADS[workload](rng, out)
    manifest.update(workload=workload, seed=seed)
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the CSV files into")
    args = parser.parse_args()
    manifest = generate(args.workload, args.seed, Path(args.out))
    for name, info in manifest["files"].items():
        print(f"{name:8s} {info['rows']:7d} rows {info['bytes']:9d} bytes  {info['path']}")
    print(json.dumps({k: v for k, v in manifest.items() if k != "files"}))


if __name__ == "__main__":
    main()
