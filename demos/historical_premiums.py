"""Historical premium estimation on the bundled annual sample.

Loads ten years of synthetic equity, T-bill, and T-bond returns, then
shows how strongly the estimate depends on the window, the riskfree
instrument, and the averaging scheme.
"""

from pathlib import Path

from erp_lab import (
    AveragingMethod,
    ReturnSeries,
    SeriesFileSpec,
    erp_report,
    historical_erp,
    parse_series,
)

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"


def load(name: str) -> ReturnSeries:
    s = parse_series(SeriesFileSpec(str(DATA / name), value_column="return"))
    return ReturnSeries(s.dates, s.values)


def main() -> None:
    equity = load("annual_equity.csv")
    tbills = load("annual_tbills.csv")
    tbonds = load("annual_tbonds.csv")

    print("One estimate, spelled out")
    print("-------------------------")
    est = historical_erp(equity, tbills, (2000, 2009),
                         AveragingMethod.arithmetic(), riskfree_label="tbills")
    print(f"window {est.window[0]}-{est.window[1]}, {est.sample_size} years, "
          f"{est.method.label} vs {est.riskfree_label}: "
          f"premium {est.premium:+.4f}\n")

    print("The full grid")
    print("-------------")
    methods = [
        AveragingMethod.arithmetic(),
        AveragingMethod.geometric(),
        AveragingMethod.blume(5),
        AveragingMethod.exp_weighted(0.95),
    ]
    report = erp_report(
        equity,
        [("tbills", tbills), ("tbonds", tbonds)],
        [(2000, 2004), (2005, 2009), (2000, 2009)],
        methods,
    )
    print(report.to_csv())
    print("Note how the geometric estimates sit below the arithmetic ones")
    print("(volatility drag) and how the short windows disagree with the")
    print("full sample: window choice is a modeling decision, not a detail.")


if __name__ == "__main__":
    main()
