"""Market-model regression and CAPM pricing on simulated returns.

Builds a fake asset with a known beta, recovers it by OLS, splits its
risk into systematic and diversifiable parts, and prices portfolios with
the estimated betas.
"""

import numpy as np

from erp_lab import (
    ReturnSeries,
    capm_expected_return,
    fit_market_model,
    fit_multifactor,
    multifactor_premium,
    portfolio_beta,
    portfolio_risk_premium,
    risk_decomposition,
)
from datetime import date, timedelta


def daily(values) -> ReturnSeries:
    start = date(2024, 1, 1)
    dates = tuple(start + timedelta(days=i) for i in range(len(values)))
    return ReturnSeries(dates, np.asarray(values))


def main() -> None:
    rng = np.random.default_rng(0)
    n = 750
    market_vals = rng.normal(0.0003, 0.012, n)
    asset_vals = 1.3 * market_vals + rng.normal(0.0, 0.015, n)

    market = daily(market_vals)
    asset = daily(asset_vals)

    print("Recovering a designed beta of 1.3 by OLS")
    print("----------------------------------------")
    fit = fit_market_model(asset, market)
    print(f"beta {fit.beta:.3f}, intercept {fit.intercept:+.5f}, "
          f"residual sigma {fit.residual_sigma:.4f} over {fit.n_obs} days\n")

    systematic, unsystematic = risk_decomposition(fit)
    print(f"daily systematic risk   {systematic:.4f}  (beta x sigma_m)")
    print(f"daily unsystematic risk {unsystematic:.4f}  (diversifiable)\n")

    print("Pricing with the estimated beta")
    print("-------------------------------")
    rf, expected_market = 0.03, 0.08
    expected = capm_expected_return(rf, fit.beta, expected_market)
    print(f"riskfree {rf:.0%}, market {expected_market:.0%}  =>  "
          f"expected return {expected:.4f}")
    premium = portfolio_risk_premium(fit.beta, expected_market - rf)
    print(f"risk premium itself: {premium:.4f}\n")

    print("Portfolio beta is just the weighted average")
    print("-------------------------------------------")
    b = portfolio_beta([0.25, 0.25, 0.5], [0.6, 1.0, 1.6])
    print(f"25/25/50 mix of betas 0.6/1.0/1.6  =>  beta {b:.2f}")
    b = portfolio_beta([-0.5, 1.5], [0.0, 1.0])
    print(f"borrow half at beta 0 and lever the index  =>  beta {b:.2f}\n")

    print("Two factors instead of one")
    print("--------------------------")
    size_vals = rng.normal(0.0, 0.008, n)
    style_vals = 0.9 * market_vals + 0.5 * size_vals + rng.normal(0.0, 0.01, n)
    multi = fit_multifactor(daily(style_vals), [market, daily(size_vals)],
                            labels=("market", "size"))
    for label, beta in zip(multi.factor_labels, multi.betas):
        print(f"beta on {label}: {beta:.3f}")
    print(f"premium with factor premia (5%, 2%): "
          f"{multifactor_premium(multi.betas, [0.05, 0.02]):.4f}")


if __name__ == "__main__":
    main()
