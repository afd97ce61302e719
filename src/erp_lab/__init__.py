"""Equity risk premium estimation three ways.

Historical averaging over configurable windows, implied required returns
from dividend- and earnings-based pricing models (including the daily
implied-premium pipeline), and the CAPM machinery the premium plugs into.
"""

from .averaging import (
    AveragingMethod,
    arithmetic_mean,
    blume_blend,
    exp_weighted_mean,
    geometric_mean,
)
from .capm import (
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
from .charts import line_chart_svg, write_line_chart
from .historical import (
    ErpEstimate,
    ErpReport,
    ReportCell,
    erp_report,
    historical_erp,
    premium_series,
)
from .implied import (
    CashflowSchedule,
    GordonInputs,
    TwoStageInputs,
    dcf_price,
    earnings_implied_k,
    gordon_implied_k,
    gordon_price,
    implied_erp_series,
    two_stage_implied_k,
    two_stage_price,
)
from .io import SeriesFileSpec, parse_series, write_series
from .timeseries import (
    DatedSeries,
    ReturnSeries,
    align,
    align_many,
    ema,
    simple_returns,
    step_interpolate,
)

__version__ = "0.1.0"

__all__ = [
    "AveragingMethod",
    "CashflowSchedule",
    "DatedSeries",
    "ErpEstimate",
    "ErpReport",
    "FactorModelFit",
    "GordonInputs",
    "MarketModelFit",
    "ReportCell",
    "ReturnSeries",
    "SeriesFileSpec",
    "TwoStageInputs",
    "align",
    "align_many",
    "arithmetic_mean",
    "blume_blend",
    "capm_expected_return",
    "dcf_price",
    "earnings_implied_k",
    "ema",
    "erp_report",
    "exp_weighted_mean",
    "fit_market_model",
    "fit_multifactor",
    "geometric_mean",
    "gordon_implied_k",
    "gordon_price",
    "historical_erp",
    "implied_erp_series",
    "line_chart_svg",
    "multifactor_premium",
    "parse_series",
    "portfolio_beta",
    "portfolio_risk_premium",
    "premium_series",
    "risk_decomposition",
    "simple_returns",
    "simulate_diversification",
    "step_interpolate",
    "two_stage_implied_k",
    "two_stage_price",
    "write_line_chart",
    "write_series",
]
