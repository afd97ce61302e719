"""Market-model regression, CAPM pricing, and diversification machinery.

The single-factor market model decomposes an asset's return into a
component proportional to the market return (slope ``beta``) plus an
independent residual.  Systematic risk is ``|beta| * sigma_m``; the
residual standard deviation is the unsystematic, diversifiable part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRegressorError,
    EmptyInputError,
    InvalidParametersError,
    LengthMismatchError,
    NegativeSigmaError,
    RankDeficientError,
    TooFewObservationsError,
    WeightsNotNormalizedError,
)
from .timeseries import align, align_many


@dataclass(frozen=True)
class MarketModelFit:
    """OLS fit of asset returns on market returns, with intercept.

    ``residual_sigma`` uses the population convention (divide by n), so an
    exact linear relation yields exactly zero.
    """

    beta: float
    intercept: float
    residual_sigma: float
    n_obs: int

    def __post_init__(self):
        if self.residual_sigma < 0:
            raise ValueError("residual_sigma must be >= 0")
        if self.n_obs < 2:
            raise ValueError("n_obs must be >= 2")


@dataclass(frozen=True)
class FactorModelFit:
    """Multiple-regression fit of asset returns on factor returns."""

    betas: tuple[float, ...]
    intercept: float
    residual_sigma: float
    factor_labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(self.betas))
        object.__setattr__(self, "factor_labels", tuple(self.factor_labels))
        if len(self.betas) != len(self.factor_labels) or not self.betas:
            raise ValueError("betas and factor_labels must have equal length >= 1")
        if self.residual_sigma < 0:
            raise ValueError("residual_sigma must be >= 0")


def fit_market_model(asset, market) -> MarketModelFit:
    """Ordinary least squares of asset returns on market returns.

    Series are paired by date intersection first.  Needs at least two
    common observations and a market with nonzero variance.

    Raises
    ------
    TooFewObservationsError
        Fewer than two aligned observations.
    DegenerateRegressorError
        All market returns identical (zero variance).
    """
    _, y, x = align(asset, market)
    n = len(x)
    if n < 2:
        raise TooFewObservationsError("market-model regression needs >= 2 observations")
    dx = x - x.mean()
    var_x = float(np.mean(dx * dx))
    # rounding can give a constant market a tiny variance, underflow a varying one zero
    if var_x == 0.0 or np.all(x == x[0]):
        raise DegenerateRegressorError("market returns have zero variance")
    dy = y - y.mean()
    beta = float(np.mean(dx * dy)) / var_x
    intercept = float(y.mean() - beta * x.mean())
    residuals = y - (intercept + beta * x)
    residual_sigma = float(np.sqrt(np.mean(residuals**2)))
    return MarketModelFit(beta, intercept, residual_sigma, n)


def risk_decomposition(fit: MarketModelFit, sigma_m: float) -> tuple[float, float]:
    """Split total risk into (systematic, unsystematic) components.

    Systematic risk is ``|beta| * sigma_m``; unsystematic risk is the
    fit's residual standard deviation.
    """
    if sigma_m < 0:
        raise NegativeSigmaError("sigma_m must be >= 0")
    return abs(fit.beta) * sigma_m, fit.residual_sigma


def capm_expected_return(rf: float, beta: float, expected_market: float) -> float:
    """Expected return ``rf + beta * (expected_market - rf)``."""
    return rf + beta * (expected_market - rf)


def portfolio_beta(weights, betas) -> float:
    """Weight-averaged beta of portfolio components.

    Weights must sum to 1 within 1e-9; negative weights (borrowing at the
    riskfree rate to lever beta above 1) are allowed.
    """
    w = np.asarray(weights, dtype=float)
    b = np.asarray(betas, dtype=float)
    if w.size == 0:
        raise EmptyInputError("portfolio needs at least one component")
    if w.size != b.size:
        raise LengthMismatchError(f"{w.size} weights vs {b.size} betas")
    if abs(w.sum() - 1.0) > 1e-9:
        raise WeightsNotNormalizedError(f"weights sum to {w.sum()!r}, not 1")
    return float(np.dot(w, b))


def portfolio_risk_premium(beta_p: float, market_premium: float) -> float:
    """Risk premium of a portfolio: its beta times the market premium."""
    return beta_p * market_premium


def fit_multifactor(asset, factors, labels=None) -> FactorModelFit:
    """Multiple least squares of asset returns on several factor series.

    All series are intersected on common dates; the design matrix gets an
    intercept column.  With a single factor this reduces to
    :func:`fit_market_model`.

    Raises
    ------
    TooFewObservationsError
        Fewer aligned observations than factors + 1.
    RankDeficientError
        Factor matrix (with intercept) not of full column rank.
    """
    factors = list(factors)
    if not factors:
        raise EmptyInputError("need at least one factor series")
    if labels is None:
        labels = tuple(f"F{i + 1}" for i in range(len(factors)))
    _, columns = align_many([asset] + factors)
    y, factor_cols = columns[0], columns[1:]
    n, k = len(y), len(factor_cols)
    if n < k + 1:
        raise TooFewObservationsError(f"{n} observations for {k} factors")
    design = np.column_stack([np.ones(n)] + factor_cols)
    if np.linalg.matrix_rank(design) < k + 1:
        raise RankDeficientError("factor matrix is rank deficient")
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ coef
    residual_sigma = float(np.sqrt(np.mean(residuals**2)))
    return FactorModelFit(tuple(float(c) for c in coef[1:]), float(coef[0]),
                          residual_sigma, tuple(labels))


def multifactor_premium(betas, factor_premia) -> float:
    """Risk premium from factor exposures: the dot product of the two lists."""
    b = np.asarray(betas, dtype=float)
    p = np.asarray(factor_premia, dtype=float)
    if b.size != p.size:
        raise LengthMismatchError(f"{b.size} betas vs {p.size} premia")
    return float(np.dot(b, p))


def simulate_diversification(
    n_assets: int,
    beta: float,
    sigma_m: float,
    sigma_eps: float,
    n_periods: int,
    seed: int,
) -> tuple[float, float]:
    """Sample risk of an equal-weight portfolio of same-beta assets.

    Draws ``n_periods`` market returns (normal, mean 0, std ``sigma_m``)
    and one independent zero-mean residual stream per asset (std
    ``sigma_eps``), forms asset returns ``beta * market + residual`` and
    the equal-weight portfolio, and reports:

    * systematic risk ``|beta| * sample_sigma_m``
    * unsystematic risk: sample std of the portfolio residual, which the
      central limit theorem drives toward ``sigma_eps / sqrt(n_assets)``

    Deterministic for a given seed.
    """
    if n_assets < 1 or n_periods < 30 or sigma_m < 0 or sigma_eps < 0:
        raise InvalidParametersError(
            "need n_assets >= 1, n_periods >= 30, and non-negative sigmas"
        )
    rng = np.random.default_rng(seed)
    market = rng.normal(0.0, sigma_m, n_periods)
    residuals = rng.normal(0.0, sigma_eps, (n_assets, n_periods))
    portfolio_residual = residuals.mean(axis=0)
    systematic = abs(beta) * float(market.std())
    unsystematic = float(portfolio_residual.std())
    return systematic, unsystematic
