"""The daily implied-premium pipeline, end to end.

Quarterly EPS is carried forward onto the daily price calendar, smoothed
with a 50-day EMA, turned into an earnings yield, and compared with the
ten-year yield day by day.  Writes implied_erp.csv and implied_erp.svg
into the current directory.
"""

from pathlib import Path

from erp_lab import (
    SeriesFileSpec,
    ema,
    implied_erp_series,
    line_chart_svg,
    parse_series,
    step_interpolate,
)
from erp_lab.io import write_bytes, write_rows

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"


def main() -> None:
    prices = parse_series(SeriesFileSpec(str(DATA / "daily_prices.csv"),
                                         value_column="close"))
    eps_quarterly = parse_series(SeriesFileSpec(str(DATA / "quarterly_eps.csv"),
                                                value_column="eps"))
    # yields are quoted in percent, hence the 0.01 scale
    yields = parse_series(SeriesFileSpec(str(DATA / "daily_yields.csv"),
                                         value_column="rate", value_scale=0.01))

    print(f"{len(prices)} daily prices, {len(eps_quarterly)} EPS reports, "
          f"{len(yields)} yield quotes")

    eps_daily = step_interpolate(eps_quarterly, prices.days)
    eps_smooth = ema(eps_daily, 50)
    erp = implied_erp_series(prices, eps_smooth, yields)

    negatives = [(d, v) for d, v in erp.as_pairs() if v < 0]
    print(f"premium ranges {erp.values.min():+.4f} to {erp.values.max():+.4f}")
    print(f"{len(negatives)} of {len(erp)} days are negative")
    if negatives:
        first, last = negatives[0][0], negatives[-1][0]
        print(f"the negative episode runs roughly {first} to {last}:")
        print("prices outran smoothed earnings until the premium vanished,")
        print("then earnings recovered and the premium turned positive again.")

    write_rows("implied_erp.csv", ("date", "erp"), erp.days, [erp.values])
    write_bytes("implied_erp.svg", [line_chart_svg(erp)])
    print("wrote implied_erp.csv and implied_erp.svg")


if __name__ == "__main__":
    main()
