"""Implied required-return models and the daily implied-premium series.

Pricing here is present-value arithmetic: a cash flow ``CF_i`` due at the
end of period ``i`` is worth ``CF_i / (1 + r)**i`` today.  Inverting a
pricing model at the observed market price yields the required return
``k`` the market is implicitly using; subtracting a riskfree yield turns
that into an implied equity risk premium.

Models, cheapest first:

* constant-growth dividend stream (closed form, ``P = D*(1+g)/(k-g)``)
* earnings yield (``P = EPS/k``, payout ratio cancels)
* two growth stages (short-term rate for a few years, then a long-term
  rate forever), inverted numerically by bisection
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputsError,
    NonConvergentError,
    NonPositiveEpsError,
    NonPositivePriceError,
    NoRootInBracketError,
    NumericalError,
    RateBelowMinusOneError,
)
from .timeseries import DatedSeries, _read_only, align_many

BISECTION_XTOL = 1e-10
BISECTION_RTOL = 4 * np.finfo(float).eps
BISECTION_MAXITER = 200
RATE_CEILING = 10.0


def _require_finite(error: type[Exception], **values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise error(f"{name} must be finite, got {value}")


def _require_not_nan(k: float, gap: float) -> float:
    if math.isnan(gap):
        raise NumericalError(f"two-stage price is NaN at k={k}; bisection cannot continue")
    return gap


@dataclass(frozen=True)
class CashflowSchedule:
    """Dated expected cash flows: period indices (>= 1) and amounts.

    Indices are strictly increasing; amounts are finite and may be
    negative (outflows).
    """

    periods: tuple[int, ...]
    amounts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "periods", tuple(int(p) for p in self.periods))
        amounts = np.array(self.amounts, dtype=float)
        amounts.flags.writeable = False
        object.__setattr__(self, "amounts", amounts)
        if len(self.periods) != len(self.amounts):
            raise ValueError("periods and amounts must have equal length")
        if any(p < 1 for p in self.periods):
            raise ValueError("period indices must be >= 1")
        if any(b <= a for a, b in zip(self.periods, self.periods[1:])):
            raise ValueError("period indices must be strictly increasing")
        if not np.all(np.isfinite(self.amounts)):
            raise ValueError("amounts must be finite")

    @classmethod
    def from_amounts(cls, amounts) -> "CashflowSchedule":
        """Consecutive periods 1..n for a plain list of amounts."""
        amounts = np.asarray(amounts, dtype=float)
        return cls(tuple(range(1, len(amounts) + 1)), amounts)


@dataclass(frozen=True)
class GordonInputs:
    """Constant-growth dividend model inputs: D today, growth g, required k."""

    dividend_now: float
    growth: float
    required_k: float

    def __post_init__(self):
        _require_finite(ValueError, dividend_now=self.dividend_now,
                        growth=self.growth, required_k=self.required_k)
        if self.dividend_now <= 0:
            raise ValueError("dividend_now must be positive")


@dataclass(frozen=True)
class TwoStageInputs:
    """Two growth stages: ``short_growth`` for ``short_years``, then
    ``long_growth`` forever."""

    dividend_now: float
    short_growth: float
    short_years: int
    long_growth: float

    def __post_init__(self):
        _require_finite(ValueError, dividend_now=self.dividend_now,
                        short_growth=self.short_growth, short_years=self.short_years,
                        long_growth=self.long_growth)
        if self.dividend_now <= 0:
            raise ValueError("dividend_now must be positive")
        if self.short_years < 0:
            raise ValueError("short_years must be >= 0")
        if self.short_years != int(self.short_years):
            raise ValueError(f"short_years must be a whole number, got {self.short_years}")
        if self.short_growth <= -1:
            raise ValueError(f"short_growth must exceed -1, got {self.short_growth}")
        if self.long_growth <= -1:
            raise ValueError(f"long_growth must exceed -1, got {self.long_growth}")


def dcf_price(schedule: CashflowSchedule, rate: float) -> float:
    """Present value of a cash-flow schedule at one discount rate.

    ``sum(CF_i / (1 + rate)**i)``; a rate of zero returns the plain sum.
    """
    if rate <= -1.0:
        raise RateBelowMinusOneError("discount rate must exceed -1")
    periods = np.asarray(schedule.periods, dtype=float)
    return float(np.sum(schedule.amounts / (1.0 + rate) ** periods))


def gordon_price(inputs: GordonInputs) -> float:
    """Closed-form price of a constant-growth dividend stream.

    ``P = D * (1 + g) / (k - g)``; the infinite sum only converges for
    ``k > g``.
    """
    d, g, k = inputs.dividend_now, inputs.growth, inputs.required_k
    if k <= g:
        raise NonConvergentError(f"dividend sum diverges for k={k} <= g={g}")
    return d * (1.0 + g) / (k - g)


def gordon_implied_k(price: float, dividend_now: float, growth: float) -> float:
    """Required return implied by a price under constant dividend growth.

    Inverts the closed form: ``k = D*(1+g)/P + g``, i.e. next period's
    dividend yield plus the growth rate.  Round-trips exactly with
    :func:`gordon_price`.
    """
    _require_finite(InvalidInputsError, price=price, dividend_now=dividend_now, growth=growth)
    if price <= 0:
        raise NonPositivePriceError("price must be positive")
    if dividend_now <= 0:
        raise InvalidInputsError("dividend_now must be positive")
    return dividend_now * (1.0 + growth) / price + growth


def earnings_implied_k(price: float, eps: float) -> float:
    """Required return as the earnings yield ``EPS / P``.

    Assuming earnings retained at rate (1-p) are reinvested at the
    required return itself, the payout ratio cancels out of the pricing
    identity and the inverse PE ratio is the market's required return.
    """
    _require_finite(InvalidInputsError, price=price, eps=eps)
    if price <= 0:
        raise NonPositivePriceError("price must be positive")
    if eps <= 0:
        raise NonPositiveEpsError("eps must be positive")
    return eps / price


def two_stage_price(inputs: TwoStageInputs, k: float) -> float:
    """Price a dividend stream with two growth stages at required return k.

    The first ``short_years`` dividends grow at ``short_growth``; from
    then on growth is ``long_growth`` forever, valued as a terminal
    constant-growth stream discounted back.  Requires ``k > long_growth``;
    a price beyond float range raises :class:`NumericalError`.
    """
    d, gs, n, gl = (inputs.dividend_now, inputs.short_growth,
                    inputs.short_years, inputs.long_growth)
    if k <= gl:
        raise NonConvergentError(f"terminal stream diverges for k={k} <= g={gl}")
    ratio = (1.0 + gs) / (1.0 + k)
    head = d * np.sum(ratio ** np.arange(1, n + 1))
    try:
        terminal = d * (1.0 + gs) ** n * (1.0 + gl) / (k - gl)
        return float(head + terminal / (1.0 + k) ** n)
    except (OverflowError, ZeroDivisionError) as exc:
        # (1 + g)**n overflows, or (1 + k)**n underflows to zero
        raise NumericalError(f"two-stage price is out of float range at k={k}") from exc


def two_stage_implied_k(price: float, inputs: TwoStageInputs) -> float:
    """Required return solving ``two_stage_price(inputs, k) == price``.

    The price is strictly decreasing in k above the long-run growth rate,
    so the root is unique when bracketed.  Solved by bisection on
    ``(long_growth + 1e-9, 10.0]`` until the step falls below
    ``1e-10 + 4*eps*|k|``; prices outside what that bracket can produce
    raise :class:`NoRootInBracketError`, and a price that evaluates to
    NaN, or no convergence within 200 halvings, raises
    :class:`NumericalError`.
    """
    _require_finite(InvalidInputsError, price=price)
    if price <= 0:
        raise NonPositivePriceError("price must be positive")
    lo = inputs.long_growth + 1e-9
    hi = RATE_CEILING
    if lo >= hi:
        raise InvalidInputsError(f"long_growth {inputs.long_growth} at or above rate ceiling")

    def gap(k: float) -> float:
        return two_stage_price(inputs, k) - price

    gap_lo, gap_hi = gap(lo), gap(hi)
    if gap_lo == 0.0:
        return lo
    if gap_hi == 0.0:
        return hi
    if gap_lo < 0.0:
        raise NoRootInBracketError("price too high for any admissible required return")
    if gap_hi > 0.0:
        raise NoRootInBracketError("price too low for any required return below the ceiling")
    for k, value in ((lo, gap_lo), (hi, gap_hi)):
        _require_not_nan(k, value)
    # Halve the step from lo, move lo while the gap keeps gap_lo's sign, and
    # stop on an exact root or a step within tolerance of the midpoint.
    step = hi - lo
    for _ in range(BISECTION_MAXITER):
        step *= 0.5
        mid = lo + step
        gap_mid = _require_not_nan(mid, gap(mid))
        if gap_mid * gap_lo >= 0.0:
            lo = mid
        if gap_mid == 0.0 or abs(step) < BISECTION_XTOL + BISECTION_RTOL * abs(mid):
            return mid
    raise NumericalError(f"bisection did not converge in {BISECTION_MAXITER} steps; last k={lo}")


def implied_erp_series(prices: DatedSeries, eps_daily: DatedSeries,
                       yields: DatedSeries) -> DatedSeries:
    """Daily implied premium: earnings yield minus riskfree yield.

    All three series are intersected on common dates; per date the value
    is ``eps/price - yield``.  ``eps_daily`` is expected to be already
    interpolated/smoothed onto a daily grid and ``yields`` to be annual
    decimal fractions.  The result can be negative: the market may price
    in more performance than current earnings justify.

    Raises
    ------
    EmptyIntersectionError
        No date common to all three series.
    NonPositivePriceError, NonPositiveEpsError
        Reported with the offending date.
    """
    days, (p, e, y) = align_many([prices, eps_daily, yields])
    bad = (p <= 0) | (e <= 0)
    if bad.any():
        i = int(np.argmax(bad))
        if p[i] <= 0:
            raise NonPositivePriceError(f"non-positive price at {days[i]}")
        raise NonPositiveEpsError(f"non-positive eps at {days[i]}")
    # built in e: align_many hands back fresh arrays, so no input changes
    e /= p
    e -= y
    return DatedSeries(days, _read_only(e))
