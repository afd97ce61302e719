"""Tests for DCF pricing, implied required returns, and the premium series."""

import math
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import erp_lab
from erp_lab import implied
from erp_lab.errors import (
    EmptyIntersectionError,
    InvalidInputsError,
    NonConvergentError,
    NonPositiveEpsError,
    NonPositivePriceError,
    NoRootInBracketError,
    NumericalError,
    RateBelowMinusOneError,
)
from erp_lab.implied import (
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
from erp_lab.timeseries import DatedSeries


def dated(values, start=date(2020, 1, 1)):
    dates = tuple(start + timedelta(days=i) for i in range(len(values)))
    return DatedSeries(dates, np.asarray(values, dtype=float))


def truncated_dividend_pv(dividends, k):
    """Discount an explicit dividend path term by term; independent of
    the closed forms under test.  Discount factors are built by repeated
    multiplication so distant terms underflow to zero instead of
    overflowing."""
    divs = np.asarray(dividends, dtype=float)
    discount = np.cumprod(np.full(divs.size, 1.0 / (1.0 + k)))
    return float(np.sum(divs * discount))


class TestCashflowSchedule:
    def test_from_amounts_numbers_consecutively(self):
        s = CashflowSchedule.from_amounts([10.0, 10.0, 110.0])
        assert s.periods == (1, 2, 3)

    def test_rejects_zero_period(self):
        with pytest.raises(ValueError, match=">= 1"):
            CashflowSchedule((0, 1), np.array([1.0, 2.0]))

    def test_rejects_unordered_periods(self):
        with pytest.raises(ValueError, match="increasing"):
            CashflowSchedule((2, 1), np.array([1.0, 2.0]))

    def test_rejects_nan_amount(self):
        with pytest.raises(ValueError, match="finite"):
            CashflowSchedule((1,), np.array([np.nan]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            CashflowSchedule((1, 2), np.array([1.0]))


class TestDcfPrice:
    def test_single_payment(self):
        s = CashflowSchedule.from_amounts([110.0])
        np.testing.assert_allclose(dcf_price(s, 0.10), 100.0, rtol=1e-12)

    def test_par_bond(self):
        # coupon equals the discount rate, so the bond prices at par
        s = CashflowSchedule.from_amounts([10.0, 10.0, 110.0])
        np.testing.assert_allclose(dcf_price(s, 0.10), 100.0, rtol=1e-12)

    def test_zero_rate_is_plain_sum(self):
        s = CashflowSchedule.from_amounts([1.0, 2.0, 3.0])
        assert dcf_price(s, 0.0) == 6.0

    def test_sparse_periods(self):
        s = CashflowSchedule((2, 5), np.array([100.0, 100.0]))
        expected = 100.0 / 1.05**2 + 100.0 / 1.05**5
        np.testing.assert_allclose(dcf_price(s, 0.05), expected, rtol=1e-13)

    def test_rate_at_minus_one_raises(self):
        s = CashflowSchedule.from_amounts([1.0])
        with pytest.raises(RateBelowMinusOneError):
            dcf_price(s, -1.0)


class TestGordon:
    def test_price_textbook_case(self):
        p = gordon_price(GordonInputs(dividend_now=2.0, growth=0.04, required_k=0.09))
        np.testing.assert_allclose(p, 41.6, rtol=1e-12)

    def test_price_zero_growth_is_perpetuity(self):
        p = gordon_price(GordonInputs(1.0, 0.0, 0.10))
        np.testing.assert_allclose(p, 10.0, rtol=1e-12)

    def test_price_requires_k_above_g(self):
        with pytest.raises(NonConvergentError):
            gordon_price(GordonInputs(2.0, 0.05, 0.05))
        with pytest.raises(NonConvergentError):
            gordon_price(GordonInputs(2.0, 0.05, 0.04))

    def test_nonpositive_dividend_rejected(self):
        with pytest.raises(ValueError):
            GordonInputs(0.0, 0.04, 0.09)

    def test_price_matches_truncated_sum(self):
        # one million discounted terms d*(1+g)^t/(1+k)^t, built as running
        # products of the per-period ratio so nothing overflows
        d, g, k = 2.0, 0.04, 0.09
        n = 1_000_000
        terms = d * np.cumprod(np.full(n, (1.0 + g) / (1.0 + k)))
        np.testing.assert_allclose(gordon_price(GordonInputs(d, g, k)),
                                   float(terms.sum()), rtol=1e-9)

    def test_implied_k_textbook_case(self):
        np.testing.assert_allclose(gordon_implied_k(41.6, 2.0, 0.04), 0.09,
                                   rtol=1e-12)

    def test_implied_k_huge_price_approaches_growth(self):
        k = gordon_implied_k(1e9, 1.0, 0.02)
        assert k == pytest.approx(0.02, abs=1e-8)
        assert k > 0.02

    def test_implied_k_nonpositive_price(self):
        with pytest.raises(NonPositivePriceError):
            gordon_implied_k(0.0, 1.0, 0.02)

    def test_implied_k_nonpositive_dividend(self):
        with pytest.raises(InvalidInputsError):
            gordon_implied_k(10.0, -1.0, 0.02)

    def test_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            d = rng.uniform(0.5, 50.0)
            g = rng.uniform(-0.05, 0.12)
            k = g + rng.uniform(0.005, 0.5)
            price = gordon_price(GordonInputs(d, g, k))
            assert abs(gordon_implied_k(price, d, g) - k) < 1e-12


class TestEarningsImpliedK:
    def test_basic_yield(self):
        np.testing.assert_allclose(earnings_implied_k(900.0, 45.0), 0.05, rtol=1e-15)

    def test_price_equal_to_eps(self):
        assert earnings_implied_k(45.0, 45.0) == 1.0

    def test_scale_invariance(self):
        k = earnings_implied_k(1200.0, 60.0)
        np.testing.assert_allclose(earnings_implied_k(1200.0 * 7.3, 60.0 * 7.3),
                                   k, rtol=1e-12)

    def test_nonpositive_inputs(self):
        with pytest.raises(NonPositivePriceError):
            earnings_implied_k(0.0, 45.0)
        with pytest.raises(NonPositiveEpsError):
            earnings_implied_k(900.0, 0.0)


class TestTwoStagePrice:
    def test_equal_stages_collapse_to_gordon(self):
        inputs = TwoStageInputs(2.0, 0.04, 5, 0.04)
        p = two_stage_price(inputs, 0.09)
        np.testing.assert_allclose(
            p, gordon_price(GordonInputs(2.0, 0.04, 0.09)), rtol=1e-12)

    def test_zero_short_years_collapse_to_gordon(self):
        inputs = TwoStageInputs(2.0, 0.20, 0, 0.03)
        np.testing.assert_allclose(
            two_stage_price(inputs, 0.08),
            gordon_price(GordonInputs(2.0, 0.03, 0.08)), rtol=1e-12)

    def test_matches_truncated_dividend_path(self):
        inputs = TwoStageInputs(1.0, 0.10, 5, 0.03)
        k = 0.08
        divs = []
        d = inputs.dividend_now
        for t in range(1, 10_001):
            growth = inputs.short_growth if t <= inputs.short_years else inputs.long_growth
            d = d * (1.0 + growth)
            divs.append(d)
        np.testing.assert_allclose(two_stage_price(inputs, k),
                                   truncated_dividend_pv(divs, k), rtol=1e-9)

    def test_strictly_decreasing_in_k(self):
        inputs = TwoStageInputs(1.0, 0.10, 5, 0.03)
        ks = np.linspace(0.04, 0.5, 40)
        prices = [two_stage_price(inputs, k) for k in ks]
        assert all(a > b for a, b in zip(prices, prices[1:]))

    def test_k_at_long_growth_raises(self):
        with pytest.raises(NonConvergentError):
            two_stage_price(TwoStageInputs(1.0, 0.10, 5, 0.03), 0.03)

    def test_negative_short_years_rejected(self):
        with pytest.raises(ValueError):
            TwoStageInputs(1.0, 0.10, -1, 0.03)

    @pytest.mark.parametrize("args, message", [
        ((1.0, 0.10, 2.5, 0.03), "whole number"),
        ((1.0, 0.10, 5, -1.0), "must exceed -1"),
        ((1.0, 0.10, 5, -1.000000001), "must exceed -1"),
        ((1.0, 0.10, 5, -1.5), "must exceed -1"),
        ((1.0, -1.0, 3, 0.03), "short_growth must exceed -1"),
        ((1.0, -2.0, 3, 0.03), "short_growth must exceed -1"),
        ((1.0, -2.0, 2, 0.03), "short_growth must exceed -1"),
        ((0.0, 0.10, 5, 0.03), "dividend_now must be positive"),
    ], ids=["fractional-short-years", "long-growth-minus-one", "long-growth-just-below",
            "long-growth-far-below", "short-growth-minus-one", "short-growth-alternating-sign",
            "short-growth-even-years", "zero-dividend"])
    def test_inadmissible_inputs_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            TwoStageInputs(*args)

    def test_whole_float_short_years_prices_as_int(self):
        assert (two_stage_price(TwoStageInputs(1.0, 0.10, 3.0, 0.03), 0.08)
                == two_stage_price(TwoStageInputs(1.0, 0.10, 3, 0.03), 0.08))


class TestTwoStageImpliedK:
    def test_reprices_observed_price(self):
        inputs = TwoStageInputs(1.0, 0.10, 5, 0.03)
        price = 30.0
        k = two_stage_implied_k(price, inputs)
        assert inputs.long_growth < k <= 10.0
        np.testing.assert_allclose(two_stage_price(inputs, k), price, rtol=1e-6)

    def test_independent_oracle_reprices(self):
        inputs = TwoStageInputs(1.0, 0.10, 5, 0.03)
        price = 30.0
        k = two_stage_implied_k(price, inputs)
        divs = []
        d = inputs.dividend_now
        for t in range(1, 10_001):
            growth = inputs.short_growth if t <= inputs.short_years else inputs.long_growth
            d = d * (1.0 + growth)
            divs.append(d)
        np.testing.assert_allclose(truncated_dividend_pv(divs, k), price, rtol=1e-6)

    @pytest.mark.parametrize("bracket_end", ["lo", "hi"])
    def test_exact_root_at_a_bracket_end_is_returned_as_is(self, bracket_end):
        # bisection alone would walk away from a root at lo, where
        # gap_mid * gap_lo >= 0 always holds
        inputs = TwoStageInputs(1.0, 0.10, 5, 0.03)
        k = inputs.long_growth + 1e-9 if bracket_end == "lo" else 10.0
        assert two_stage_implied_k(two_stage_price(inputs, k), inputs) == k

    def test_degenerate_matches_gordon_closed_form(self):
        inputs = TwoStageInputs(2.0, 0.04, 5, 0.04)
        price = gordon_price(GordonInputs(2.0, 0.04, 0.09))
        k = two_stage_implied_k(price, inputs)
        assert abs(k - gordon_implied_k(price, 2.0, 0.04)) < 1e-9

    def test_round_trip_random_inputs(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            inputs = TwoStageInputs(
                dividend_now=rng.uniform(0.5, 10.0),
                short_growth=rng.uniform(-0.05, 0.25),
                short_years=int(rng.integers(0, 21)),
                long_growth=rng.uniform(0.0, 0.05),
            )
            k_true = inputs.long_growth + rng.uniform(0.01, 0.3)
            price = two_stage_price(inputs, k_true)
            k = two_stage_implied_k(price, inputs)
            assert abs(k - k_true) < 1e-9

    def test_price_too_low_for_bracket(self):
        with pytest.raises(NoRootInBracketError, match="too low"):
            two_stage_implied_k(1e-9, TwoStageInputs(1.0, 0.10, 5, 0.03))

    def test_price_too_high_for_bracket(self):
        with pytest.raises(NoRootInBracketError, match="too high"):
            two_stage_implied_k(1e12, TwoStageInputs(1.0, 0.10, 5, 0.03))

    def test_nonpositive_price(self):
        with pytest.raises(NonPositivePriceError):
            two_stage_implied_k(0.0, TwoStageInputs(1.0, 0.10, 5, 0.03))

    def test_long_growth_at_ceiling(self):
        with pytest.raises(InvalidInputsError):
            two_stage_implied_k(30.0, TwoStageInputs(1.0, 0.10, 5, 10.0))

    @pytest.mark.parametrize("nan_at", [lambda k: k == 10.0, lambda k: 4.0 < k < 6.0],
                             ids=["ceiling", "midpoint"])
    def test_nan_price_is_numerical_error(self, monkeypatch, nan_at):
        price_at = implied.two_stage_price
        monkeypatch.setattr(implied, "two_stage_price",
                            lambda inputs, k: math.nan if nan_at(k) else price_at(inputs, k))
        with pytest.raises(NumericalError, match="NaN at k="):
            two_stage_implied_k(30.0, TwoStageInputs(1.0, 0.10, 5, 0.03))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("inputs", [TwoStageInputs(1.0, 0.5, 5000, 0.03),
                                        TwoStageInputs(1.0, 0.0, 400, -0.95)],
                             ids=["growth-overflows", "discount-underflows"])
    def test_out_of_float_range_is_numerical_error(self, inputs):
        with pytest.raises(NumericalError, match="out of float range at k="):
            two_stage_implied_k(30.0, inputs)

    def test_no_convergence_is_numerical_error(self, monkeypatch):
        monkeypatch.setattr(implied, "BISECTION_MAXITER", 3)
        with pytest.raises(NumericalError, match="did not converge in 3 steps"):
            two_stage_implied_k(30.0, TwoStageInputs(1.0, 0.10, 5, 0.03))

    def test_solves_without_scipy(self):
        """A fresh interpreter that cannot import scipy imports the package
        and the CLI and solves the two-stage model."""
        code = ("import sys; sys.modules['scipy'] = None\n"
                "import erp_lab, erp_lab.cli\n"
                "from erp_lab import TwoStageInputs, two_stage_implied_k\n"
                "print(repr(two_stage_implied_k(30.0, TwoStageInputs(1.0, 0.10, 5, 0.03))))\n")
        src = str(Path(erp_lab.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                encoding="utf-8", env={**os.environ, "PYTHONPATH": path})
        assert result.returncode == 0, result.stderr
        expected = two_stage_implied_k(30.0, TwoStageInputs(1.0, 0.10, 5, 0.03))
        assert float(result.stdout) == expected


NON_FINITE_CALLS = {
    "GordonInputs.dividend_now": (lambda x: GordonInputs(x, 0.04, 0.09), ValueError),
    "GordonInputs.growth": (lambda x: GordonInputs(2.0, x, 0.09), ValueError),
    "GordonInputs.required_k": (lambda x: GordonInputs(2.0, 0.04, x), ValueError),
    "TwoStageInputs.dividend_now": (lambda x: TwoStageInputs(x, 0.10, 5, 0.03), ValueError),
    "TwoStageInputs.short_growth": (lambda x: TwoStageInputs(1.0, x, 5, 0.03), ValueError),
    "TwoStageInputs.short_years": (lambda x: TwoStageInputs(1.0, 0.10, x, 0.03), ValueError),
    "TwoStageInputs.long_growth": (lambda x: TwoStageInputs(1.0, 0.10, 5, x), ValueError),
    "gordon_implied_k.price": (lambda x: gordon_implied_k(x, 2.0, 0.04), InvalidInputsError),
    "gordon_implied_k.dividend_now": (lambda x: gordon_implied_k(41.6, x, 0.04),
                                      InvalidInputsError),
    "gordon_implied_k.growth": (lambda x: gordon_implied_k(41.6, 2.0, x), InvalidInputsError),
    "earnings_implied_k.price": (lambda x: earnings_implied_k(x, 45.0), InvalidInputsError),
    "earnings_implied_k.eps": (lambda x: earnings_implied_k(900.0, x), InvalidInputsError),
    "two_stage_implied_k.price": (
        lambda x: two_stage_implied_k(x, TwoStageInputs(1.0, 0.10, 5, 0.03)),
        InvalidInputsError),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("target", sorted(NON_FINITE_CALLS))
def test_non_finite_input_rejected(target, value):
    call, error = NON_FINITE_CALLS[target]
    with pytest.raises(error, match="must be finite"):
        call(value)


def first_bad_row(dates, p, e):
    """The per-row positivity check, as a plain loop."""
    for d, price, eps in zip(dates, p, e):
        if price <= 0:
            return NonPositivePriceError, f"non-positive price at {d}"
        if eps <= 0:
            return NonPositiveEpsError, f"non-positive eps at {d}"
    return None


class TestImpliedErpSeries:
    def test_constant_inputs(self):
        prices = dated([1000.0] * 4)
        eps = dated([50.0] * 4)
        yields = dated([0.04] * 4)
        out = implied_erp_series(prices, eps, yields)
        np.testing.assert_allclose(out.values, 0.01, atol=1e-15)

    def test_yield_equal_to_earnings_yield_gives_zero(self):
        prices = dated([1000.0] * 3)
        eps = dated([50.0] * 3)
        yields = dated([0.05] * 3)
        out = implied_erp_series(prices, eps, yields)
        np.testing.assert_array_equal(out.values, np.zeros(3))

    def test_negative_premium(self):
        out = implied_erp_series(dated([1000.0]), dated([30.0]), dated([0.05]))
        np.testing.assert_allclose(out.values, [-0.02], atol=1e-15)

    def test_intersects_all_three_calendars(self):
        prices = dated([1000.0] * 5)
        eps = dated([50.0] * 4, start=date(2020, 1, 2))
        yields = dated([0.04] * 5, start=date(2020, 1, 3))
        out = implied_erp_series(prices, eps, yields)
        assert out.dates == (date(2020, 1, 3), date(2020, 1, 4), date(2020, 1, 5))

    def test_restriction_commutes(self):
        rng = np.random.default_rng(23)
        n = 60
        prices = dated(rng.uniform(800.0, 1200.0, n))
        eps = dated(rng.uniform(30.0, 60.0, n))
        yields = dated(rng.uniform(0.02, 0.06, n))
        full = implied_erp_series(prices, eps, yields)
        sub_dates = full.dates[10:40]
        sub_prices = DatedSeries(sub_dates, prices.values[10:40])
        restricted = implied_erp_series(sub_prices, eps, yields)
        assert restricted.dates == sub_dates
        np.testing.assert_array_equal(restricted.values, full.values[10:40])

    def test_disjoint_dates_raise(self):
        with pytest.raises(EmptyIntersectionError):
            implied_erp_series(dated([1000.0]), dated([50.0], start=date(2021, 1, 1)),
                               dated([0.04]))

    def test_bad_price_names_date(self):
        prices = DatedSeries(dated([1.0, 1.0]).dates, np.array([1000.0, -5.0]))
        with pytest.raises(NonPositivePriceError, match="2020-01-02"):
            implied_erp_series(prices, dated([50.0, 50.0]), dated([0.04, 0.04]))

    def test_bad_eps_names_date(self):
        eps = DatedSeries(dated([1.0, 1.0]).dates, np.array([50.0, 0.0]))
        with pytest.raises(NonPositiveEpsError, match="2020-01-02"):
            implied_erp_series(dated([1000.0, 1000.0]), eps, dated([0.04, 0.04]))

    def test_earliest_bad_date_is_reported(self):
        days = dated([0.0] * 6).dates
        yields = DatedSeries(days[1:], np.full(5, 0.04))  # day 0 is not common
        prices = DatedSeries(days, np.array([-1.0, 1000.0, 1000.0, -5.0, 1000.0, -5.0]))
        eps = DatedSeries(days, np.array([50.0, 50.0, 0.0, 50.0, -1.0, 50.0]))
        with pytest.raises(NonPositiveEpsError, match="at 2020-01-03$"):
            implied_erp_series(prices, eps, yields)
        eps = DatedSeries(days, np.array([50.0, 50.0, 50.0, 0.0, -1.0, 50.0]))
        with pytest.raises(NonPositivePriceError, match="at 2020-01-04$"):
            implied_erp_series(prices, eps, yields)

    @given(offsets=st.lists(st.sets(st.integers(0, 12), min_size=1, max_size=10),
                            min_size=3, max_size=3),
           same=st.booleans(),
           values=st.lists(st.floats(1e-100, 1e100), min_size=30, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_premium_is_earnings_yield_less_yield_on_common_dates(self, offsets, same, values):
        start = date(2020, 1, 1)
        dates = [[start + timedelta(days=k) for k in sorted(o)] for o in offsets]
        prices, eps, yields = (DatedSeries(d, np.array(values[10 * i:10 * i + len(d)]))
                               for i, d in enumerate(dates))
        if same:  # eps on the prices calendar array itself, as the CLI builds it
            eps = DatedSeries(prices.days, np.array(values[10:10 + len(prices)]))
        inputs = [(s.values, s.values.copy()) for s in (prices, eps, yields)]
        common = sorted(set(prices.dates) & set(eps.dates) & set(yields.dates))
        if not common:
            with pytest.raises(EmptyIntersectionError):
                implied_erp_series(prices, eps, yields)
            return
        out = implied_erp_series(prices, eps, yields)
        p, e, y = ([dict(zip(s.dates, s.values))[d] for d in common]
                   for s in (prices, eps, yields))
        expected = np.array(e) / np.array(p) - np.array(y)
        assert out.dates == tuple(common)
        assert list(map(float.hex, out.values.tolist())) == list(map(float.hex,
                                                                     expected.tolist()))
        assert not out.values.flags.writeable
        for kept, before in inputs:
            assert not kept.flags.writeable
            assert kept.tobytes() == before.tobytes()

    @given(rows=st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 1000.0, 1000.0]),
                                   st.sampled_from([-1.0, 0.0, 50.0, 50.0])),
                         min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_positivity_check_matches_row_loop(self, rows):
        prices, eps = dated([p for p, _ in rows]), dated([e for _, e in rows])
        yields = dated([0.04] * len(rows))
        expected = first_bad_row(prices.dates, prices.values, eps.values)
        if expected is None:
            implied_erp_series(prices, eps, yields)
            return
        error, message = expected
        with pytest.raises(error) as info:
            implied_erp_series(prices, eps, yields)
        assert str(info.value) == message
