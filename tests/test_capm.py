"""Tests for market-model fits, CAPM pricing, and diversification."""

import math
from datetime import date, timedelta

import numpy as np
import pytest

from erp_lab.capm import (
    FactorModelFit,
    MarketModelFit,
    capm_expected_return,
    fit_market_model,
    fit_multifactor,
    multifactor_premium,
    portfolio_beta,
    portfolio_risk_premium,
    risk_decomposition,
    simulate_diversification,
)
from erp_lab.errors import (
    DegenerateRegressorError,
    EmptyInputError,
    InvalidParametersError,
    LengthMismatchError,
    NegativeSigmaError,
    RankDeficientError,
    TooFewObservationsError,
    WeightsNotNormalizedError,
)
from erp_lab.timeseries import ReturnSeries


def series(values, start=date(2020, 1, 1)):
    dates = tuple(start + timedelta(days=i) for i in range(len(values)))
    return ReturnSeries(dates, np.asarray(values, dtype=float))


def ols_line(x, y):
    """Textbook normal-equations slope/intercept, plain Python floats."""
    n = len(x)
    xbar = sum(x) / n
    ybar = sum(y) / n
    sxy = sum((xi - xbar) * (yi - ybar) for xi, yi in zip(x, y))
    sxx = sum((xi - xbar) ** 2 for xi in x)
    slope = sxy / sxx
    return slope, ybar - slope * xbar


class TestFitMarketModel:
    def test_exact_linear_relation(self):
        market = series([0.01, -0.02, 0.03, 0.00, 0.02])
        asset = series([0.015, -0.030, 0.045, 0.000, 0.030])
        fit = fit_market_model(asset, market)
        np.testing.assert_allclose(fit.beta, 1.5, rtol=1e-12)
        np.testing.assert_allclose(fit.intercept, 0.0, atol=1e-15)
        np.testing.assert_allclose(fit.residual_sigma, 0.0, atol=1e-12)
        assert fit.n_obs == 5

    def test_asset_identical_to_market(self):
        market = series([0.01, -0.02, 0.03, 0.02])
        fit = fit_market_model(market, market)
        assert fit.beta == 1.0
        np.testing.assert_allclose(fit.intercept, 0.0, atol=1e-18)
        np.testing.assert_allclose(fit.residual_sigma, 0.0, atol=1e-18)

    def test_three_point_fit_matches_normal_equations(self):
        x = [0.01, 0.02, 0.03]
        y = [0.02, 0.03, 0.05]
        fit = fit_market_model(series(y), series(x))
        slope, intercept = ols_line(x, y)
        assert slope == pytest.approx(1.5, abs=1e-12)
        assert intercept == pytest.approx(1.0 / 300.0, abs=1e-15)
        np.testing.assert_allclose(fit.beta, slope, rtol=1e-12)
        np.testing.assert_allclose(fit.intercept, intercept, atol=1e-15)

    def test_alignment_before_regression(self):
        market = series([0.01, 0.02, 0.03, 0.04])
        # asset misses the first market date, has one extra date at the end
        asset = ReturnSeries(market.dates[1:] + (date(2020, 2, 1),),
                             np.array([0.02, 0.03, 0.04, 0.99]))
        fit = fit_market_model(asset, market)
        assert fit.n_obs == 3
        np.testing.assert_allclose(fit.beta, 1.0, rtol=1e-12)

    def test_residual_sigma_population_convention(self):
        # residuals (-e, +e, -e, +e) around the fitted line have
        # population sigma exactly e
        x = [0.00, 0.00, 0.02, 0.02]
        e = 0.005
        y = [-e, +e, 0.01 - e, 0.01 + e]
        fit = fit_market_model(series(y), series(x))
        np.testing.assert_allclose(fit.beta, 0.5, rtol=1e-12)
        np.testing.assert_allclose(fit.residual_sigma, e, rtol=1e-12)

    def test_shift_asset_moves_only_intercept(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0.0, 0.02, 60)
        y = 1.3 * x + rng.normal(0.0, 0.01, 60)
        base = fit_market_model(series(y), series(x))
        shifted = fit_market_model(series(y + 0.004), series(x))
        np.testing.assert_allclose(shifted.beta, base.beta, rtol=1e-10)
        np.testing.assert_allclose(shifted.intercept, base.intercept + 0.004,
                                   atol=1e-12)
        np.testing.assert_allclose(shifted.residual_sigma, base.residual_sigma,
                                   rtol=1e-9)

    def test_scaling_asset_scales_fit(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0.0, 0.02, 60)
        y = 0.8 * x + rng.normal(0.0, 0.01, 60)
        base = fit_market_model(series(y), series(x))
        scaled = fit_market_model(series(3.0 * y), series(x))
        np.testing.assert_allclose(scaled.beta, 3.0 * base.beta, rtol=1e-12)
        np.testing.assert_allclose(scaled.intercept, 3.0 * base.intercept, rtol=1e-10)
        np.testing.assert_allclose(scaled.residual_sigma,
                                   3.0 * base.residual_sigma, rtol=1e-12)

    # 0.1 has a float mean one ulp off its value, so its variance is 1.9e-34, not 0
    @pytest.mark.parametrize("level", [0.01, 0.1, 0.5])
    def test_constant_market_raises(self, level):
        market = series([level] * 3)
        asset = series([0.02, 0.01, 0.03])
        with pytest.raises(DegenerateRegressorError):
            fit_market_model(asset, market)

    def test_single_common_date_raises(self):
        market = series([0.01, 0.02])
        asset = ReturnSeries((market.dates[1], date(2021, 1, 1)),
                             np.array([0.05, 0.06]))
        with pytest.raises(TooFewObservationsError):
            fit_market_model(asset, market)

    def test_fit_dataclass_validation(self):
        with pytest.raises(ValueError):
            MarketModelFit(1.0, 0.0, -0.1, 10)
        with pytest.raises(ValueError):
            MarketModelFit(1.0, 0.0, 0.1, 1)


class TestRiskDecomposition:
    def test_basic_split(self):
        fit = MarketModelFit(1.2, 0.0, 0.04, 30)
        sys, unsys = risk_decomposition(fit, 0.15)
        assert sys == pytest.approx(0.18, abs=1e-15)
        assert unsys == 0.04

    def test_negative_beta_uses_magnitude(self):
        fit = MarketModelFit(-0.5, 0.0, 0.02, 30)
        sys, _ = risk_decomposition(fit, 0.10)
        assert sys == pytest.approx(0.05, abs=1e-15)

    def test_zero_beta_all_unsystematic(self):
        fit = MarketModelFit(0.0, 0.0, 0.07, 30)
        assert risk_decomposition(fit, 0.2) == (0.0, 0.07)

    def test_negative_sigma_raises(self):
        fit = MarketModelFit(1.0, 0.0, 0.02, 30)
        with pytest.raises(NegativeSigmaError):
            risk_decomposition(fit, -0.1)


class TestCapmExpectedReturn:
    def test_textbook_case(self):
        assert capm_expected_return(0.03, 1.5, 0.08) == pytest.approx(0.105, abs=1e-15)

    def test_beta_zero_earns_riskfree(self):
        assert capm_expected_return(0.04, 0.0, 0.10) == 0.04

    def test_beta_one_earns_market(self):
        assert capm_expected_return(0.04, 1.0, 0.10) == pytest.approx(0.10, abs=1e-15)


class TestPortfolioBeta:
    def test_equal_weights(self):
        assert portfolio_beta([0.5, 0.5], [0.8, 1.2]) == pytest.approx(1.0, abs=1e-15)

    def test_single_asset(self):
        assert portfolio_beta([1.0], [1.7]) == 1.7

    def test_short_riskfree_levers_beta(self):
        # borrow 50% at beta 0 to lever the risky leg
        assert portfolio_beta([-0.5, 1.5], [0.0, 1.0]) == pytest.approx(1.5, abs=1e-15)

    def test_unnormalized_weights_raise(self):
        with pytest.raises(WeightsNotNormalizedError):
            portfolio_beta([0.5, 0.6], [1.0, 1.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(LengthMismatchError):
            portfolio_beta([1.0], [1.0, 2.0])

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            portfolio_beta([], [])


class TestPremia:
    def test_portfolio_risk_premium(self):
        assert portfolio_risk_premium(1.2, 0.05) == pytest.approx(0.06, abs=1e-15)
        assert portfolio_risk_premium(0.0, 0.05) == 0.0

    def test_multifactor_premium(self):
        assert multifactor_premium([1.0, 2.0], [0.01, 0.02]) == pytest.approx(
            0.05, abs=1e-15)

    def test_multifactor_premium_single_factor_reduces(self):
        assert multifactor_premium([1.3], [0.04]) == portfolio_risk_premium(1.3, 0.04)

    def test_multifactor_premium_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            multifactor_premium([1.0], [0.01, 0.02])


class TestFitMultifactor:
    def test_exact_two_factor_relation(self):
        rng = np.random.default_rng(7)
        f1 = rng.normal(0.0, 0.02, 40)
        f2 = rng.normal(0.0, 0.03, 40)
        y = 2.0 * f1 + 3.0 * f2
        fit = fit_multifactor(series(y), [series(f1), series(f2)])
        np.testing.assert_allclose(fit.betas, [2.0, 3.0], rtol=1e-10)
        np.testing.assert_allclose(fit.intercept, 0.0, atol=1e-12)
        np.testing.assert_allclose(fit.residual_sigma, 0.0, atol=1e-10)
        assert fit.factor_labels == ("F1", "F2")

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(8)
        f1 = rng.normal(0.0, 0.02, 80)
        f2 = rng.normal(0.0, 0.03, 80)
        y = 0.001 + 1.0 * f1 + 0.5 * f2 + rng.normal(0.0, 0.005, 80)
        fit = fit_multifactor(series(y), [series(f1), series(f2)], labels=("mkt", "size"))
        design = np.column_stack([np.ones(80), f1, f2])
        coef = np.linalg.solve(design.T @ design, design.T @ y)
        np.testing.assert_allclose(fit.intercept, coef[0], rtol=1e-8)
        np.testing.assert_allclose(fit.betas, coef[1:], rtol=1e-8)
        assert fit.factor_labels == ("mkt", "size")

    def test_single_factor_agrees_with_market_model(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0.0, 0.02, 50)
        y = 1.1 * x + rng.normal(0.0, 0.01, 50)
        single = fit_market_model(series(y), series(x))
        multi = fit_multifactor(series(y), [series(x)])
        np.testing.assert_allclose(multi.betas[0], single.beta, rtol=1e-10)
        np.testing.assert_allclose(multi.intercept, single.intercept, atol=1e-12)
        np.testing.assert_allclose(multi.residual_sigma, single.residual_sigma,
                                   rtol=1e-10)

    def test_duplicate_factor_raises(self):
        rng = np.random.default_rng(10)
        f = rng.normal(0.0, 0.02, 30)
        y = f + rng.normal(0.0, 0.01, 30)
        with pytest.raises(RankDeficientError):
            fit_multifactor(series(y), [series(f), series(f.copy())])

    def test_too_few_observations_raises(self):
        with pytest.raises(TooFewObservationsError):
            fit_multifactor(series([0.1, 0.2]),
                            [series([0.0, 0.1]), series([0.1, 0.0])])

    def test_no_factors_raises(self):
        with pytest.raises(EmptyInputError):
            fit_multifactor(series([0.1, 0.2]), [])

    def test_fit_dataclass_validation(self):
        with pytest.raises(ValueError):
            FactorModelFit((), 0.0, 0.1, ())
        with pytest.raises(ValueError):
            FactorModelFit((1.0,), 0.0, 0.1, ("a", "b"))


class TestSimulateDiversification:
    def test_deterministic_for_seed(self):
        a = simulate_diversification(10, 1.0, 0.04, 0.30, 5000, seed=42)
        b = simulate_diversification(10, 1.0, 0.04, 0.30, 5000, seed=42)
        assert a == b

    def test_zero_residual_risk(self):
        sys, unsys = simulate_diversification(5, 1.2, 0.04, 0.0, 1000, seed=1)
        assert unsys == 0.0
        assert sys == pytest.approx(1.2 * 0.04, rel=0.1)

    def test_single_asset_keeps_full_residual(self):
        _, unsys = simulate_diversification(1, 1.0, 0.04, 0.30, 20000, seed=2)
        assert unsys == pytest.approx(0.30, rel=0.05)

    def test_hundred_assets_reach_three_percent(self):
        _, unsys = simulate_diversification(100, 1.0, 0.04, 0.30, 10000, seed=3)
        assert unsys == pytest.approx(0.03, rel=0.10)

    def test_root_n_shrinkage(self):
        for n in (1, 4, 16, 64):
            _, unsys = simulate_diversification(n, 1.0, 0.04, 0.30, 10000, seed=4)
            assert unsys * math.sqrt(n) == pytest.approx(0.30, rel=0.15)

    def test_regression_recovers_design_beta(self):
        # build the same kind of sample by hand, fit the market model, and
        # check the slope lands within three standard errors of the truth
        rng = np.random.default_rng(13)
        n = 2000
        market = rng.normal(0.0, 0.04, n)
        asset = 1.4 * market + rng.normal(0.0, 0.06, n)
        fit = fit_market_model(series(asset), series(market))
        se = fit.residual_sigma / (math.sqrt(n) * market.std())
        assert abs(fit.beta - 1.4) < 3.0 * se

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_assets=0, beta=1.0, sigma_m=0.1, sigma_eps=0.1, n_periods=100, seed=0),
            dict(n_assets=5, beta=1.0, sigma_m=0.1, sigma_eps=0.1, n_periods=29, seed=0),
            dict(n_assets=5, beta=1.0, sigma_m=-0.1, sigma_eps=0.1, n_periods=100, seed=0),
            dict(n_assets=5, beta=1.0, sigma_m=0.1, sigma_eps=-0.1, n_periods=100, seed=0),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(InvalidParametersError):
            simulate_diversification(**kwargs)
