"""Tests for dated series containers, alignment, returns, EMA, and step fill."""

import dataclasses
import re
from bisect import bisect_right
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erp_lab.errors import (
    CalendarPrecedesDataError,
    EmptyIntersectionError,
    InvalidParametersError,
    NonPositivePriceError,
    TooShortError,
)
from erp_lab.timeseries import (
    _BLOCK,
    DatedSeries,
    ReturnSeries,
    align,
    align_many,
    ema,
    simple_returns,
    step_interpolate,
)


# a descent wider than int64: np.diff wraps it to NaT, which compares
# False against every day, so an order check on differences lets it through
DESCENT_PAST_INT64 = np.array([2**62, -2**62], dtype="datetime64[D]")


def days(n, start=date(2020, 1, 1), step=1):
    return tuple(start + timedelta(days=i * step) for i in range(n))


def assert_days_equal(got, expected):
    """``got`` is a ``datetime64[D]`` array holding the ``date`` objects ``expected``."""
    assert got.dtype == np.dtype("datetime64[D]")
    assert tuple(got.tolist()) == tuple(expected)


# -- plain-Python references for the vectorised calendar code -----------------

def reference_align_many(series):
    """Set intersection plus per-series dict lookup; None when empty."""
    common = set(series[0].dates)
    for s in series[1:]:
        common &= set(s.dates)
    if not common:
        return None
    dates = tuple(sorted(common))
    return dates, [[dict(zip(s.dates, s.values))[d] for d in dates] for s in series]


def reference_step(sparse, calendar):
    return [sparse.values[bisect_right(sparse.dates, d) - 1] for d in calendar]


def reference_order_error(dates):
    for i in range(1, len(dates)):
        if not dates[i] > dates[i - 1]:
            return f"dates must be strictly increasing: {dates[i - 1]} !< {dates[i]}"
    return None


# Calendars are short runs of days near one base, so that random series
# overlap often; the bases reach both ends of the date range and 1970.
BASES = (date(1, 1, 1), date(1969, 12, 20), date(2020, 1, 1), date(9999, 12, 1))
OFFSETS = st.sets(st.integers(0, 30), min_size=1, max_size=20)


def calendar_on(base, offsets):
    return [base + timedelta(days=k) for k in sorted(offsets)]


def series_on(base, offsets, shift=0.0):
    dates = calendar_on(base, offsets)
    return DatedSeries(dates, np.arange(len(dates)) + shift)


class TestDatedSeries:
    def test_roundtrip_pairs(self):
        pairs = [(date(2020, 1, 1), 1.0), (date(2020, 1, 3), 2.5)]
        s = DatedSeries.from_pairs(pairs)
        assert s.as_pairs() == pairs
        assert len(s) == 2

    def test_values_are_read_only(self):
        s = DatedSeries(days(3), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DatedSeries((), np.array([]))

    def test_rejects_unsorted_dates(self):
        d = (date(2020, 1, 2), date(2020, 1, 1))
        with pytest.raises(ValueError, match="increasing"):
            DatedSeries(d, np.array([1.0, 2.0]))

    def test_rejects_a_descent_whose_difference_overflows(self):
        with pytest.raises(ValueError, match="^dates must be strictly increasing: "
                           f"{DESCENT_PAST_INT64[0]} !< {DESCENT_PAST_INT64[1]}$"):
            DatedSeries(DESCENT_PAST_INT64, np.array([1.0, 2.0]))

    def test_rejects_duplicate_dates(self):
        d = (date(2020, 1, 1), date(2020, 1, 1))
        with pytest.raises(ValueError):
            DatedSeries(d, np.array([1.0, 2.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            DatedSeries(days(2), np.array([1.0, np.nan]))

    @pytest.mark.parametrize("calendar, position", [
        (["2020-01-01", "NaT", "2020-01-03"], 1),
        (["NaT"], 0),
        (["2020-01-01", "2020-01-02", "NaT"], 2),
    ])
    def test_rejects_nat(self, calendar, position):
        # NaT compares False against every day, so the order check alone
        # would let it through
        with pytest.raises(ValueError, match=f"^dates must not be NaT, got NaT at position {position}$"):
            DatedSeries(np.array(calendar, dtype="datetime64[D]"), np.arange(len(calendar)))

    @given(offsets=st.lists(st.integers(-3, 3), min_size=1, max_size=12),
           nat=st.lists(st.integers(0, 11), max_size=3))
    @example(offsets=[0, 1, 2], nat=[0])
    @example(offsets=[0, 1, 2], nat=[1])
    @example(offsets=[0, 1, 2], nat=[2])
    @example(offsets=[0, 0], nat=[])
    @example(offsets=[0, 1, -1], nat=[2])
    @settings(max_examples=300, deadline=None)
    def test_calendar_errors_are_the_per_check_messages(self, offsets, nat):
        # steps of -3 to 3 days, so equal days and descents occur, and NaT
        # at any position: the message is the NaT check's, else the first
        # pair's out of order, else none
        calendar = (np.datetime64("2020-01-01") + np.cumsum(offsets)).astype("datetime64[D]")
        for i in nat:
            calendar[i % calendar.size] = np.datetime64("NaT")
        if np.isnat(calendar).any():
            expected = ("dates must not be NaT, got NaT at position "
                        f"{int(np.argmax(np.isnat(calendar)))}")
        else:
            expected = reference_order_error(calendar.tolist())
        try:
            DatedSeries(calendar, np.ones(calendar.size))
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            DatedSeries(days(3), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("calendar, values, message", [
        (days(3), [[1, 5], [2, 6], [3, 7]], "values must be one-dimensional, got shape (3, 2)"),
        (days(3), 5.0, "values must be one-dimensional, got shape ()"),
        (np.array(days(6), dtype="datetime64[D]").reshape(3, 2), [1.0, 2.0, 3.0],
         "days must be one-dimensional, got shape (3, 2)"),
        (np.array(date(2020, 1, 1), dtype="datetime64[D]"), [1.0],
         "days must be one-dimensional, got shape ()"),
    ], ids=["2-D values", "scalar values", "2-D days", "0-D days"])
    def test_holds_one_value_per_day(self, calendar, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            DatedSeries(calendar, values)

    @pytest.mark.parametrize("n", [1, 3])
    def test_equal_values_on_other_dates_compare_unequal(self, n):
        a = DatedSeries(days(n), np.ones(n))
        b = DatedSeries(days(n, start=date(2021, 1, 1)), np.ones(n))
        assert not a == b
        assert a != b

    def test_equality_covers_dates_values_and_type(self):
        a = ReturnSeries(days(3), np.array([0.1, 0.2, 0.3]))
        assert a == ReturnSeries(days(3), np.array([0.1, 0.2, 0.3]))
        assert a != ReturnSeries(days(3), np.array([0.1, 0.2, 0.4]))
        assert a != DatedSeries(days(3), np.array([0.1, 0.2, 0.3]))
        assert a != ReturnSeries(days(2), np.array([0.1, 0.2]))

    def test_repr_shows_first_date(self):
        later = days(2000, start=date(2021, 1, 1))
        a = DatedSeries((date(2019, 6, 1),) + later, np.ones(2001))
        b = DatedSeries((date(2020, 6, 1),) + later, np.ones(2001))
        assert "2019" in repr(a) and "2019" not in repr(b)

    @pytest.mark.parametrize("make", [lambda d: DatedSeries(d, np.ones(len(d))),
                                      lambda d: ReturnSeries(d, np.ones(len(d)))],
                             ids=["DatedSeries", "ReturnSeries"])
    def test_stores_one_calendar(self, make):
        s = make(days(3))
        assert "dates" not in vars(s)
        assert s.dates == days(3)

    def test_fields_are_the_stored_pair(self):
        s = DatedSeries(days=np.array(days(3), dtype="datetime64[D]"), values=[1.0, 2.0, 3.0])
        assert [f.name for f in dataclasses.fields(s)] == ["days", "values"]
        assert s == DatedSeries(days(3), np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("cls", [DatedSeries, ReturnSeries])
    def test_replace_keeps_the_calendar(self, cls):
        s = cls(days(3), np.array([0.1, 0.2, 0.3]))
        out = dataclasses.replace(s, values=np.array([0.4, 0.5, 0.6]))
        assert type(out) is cls
        assert out == cls(days(3), np.array([0.4, 0.5, 0.6]))
        assert not out.days.flags.writeable and not out.values.flags.writeable
        assert out.days is s.days

    @pytest.mark.parametrize("field, new", [("days", np.datetime64("1999-01-01")),
                                            ("values", 9.0)])
    def test_writing_the_given_arrays_leaves_the_series_unchanged(self, field, new):
        given = {"days": np.array(days(3), dtype="datetime64[D]"),
                 "values": np.array([1.0, 2.0, 3.0])}
        s = DatedSeries(**given)
        given[field][0] = new
        assert s == DatedSeries(days(3), np.array([1.0, 2.0, 3.0]))

    def test_copies_a_read_only_view_of_a_writeable_array(self):
        owners = {"days": np.array(days(3), dtype="datetime64[D]"),
                  "values": np.array([1.0, 2.0, 3.0])}
        views = {name: owner.view() for name, owner in owners.items()}
        for view in views.values():
            view.flags.writeable = False
        s = DatedSeries(**views)
        assert not any(np.shares_memory(getattr(s, name), owner)
                       for name, owner in owners.items())
        owners["days"][1] = np.datetime64("2019-01-01")
        owners["values"][2] = np.nan
        assert s == DatedSeries(days(3), np.array([1.0, 2.0, 3.0]))

    def test_keeps_a_read_only_view_of_a_read_only_array(self):
        owner = np.array([1.0, 2.0, 3.0])
        owner.flags.writeable = False
        view = owner[:]
        assert DatedSeries(days(3), view).values is view

    def test_a_calendar_of_dates_is_shared_by_the_series_built_on_it(self):
        # the row loop's series hold such a calendar; step_interpolate keeps it
        prices = DatedSeries.from_pairs(zip(days(3), [1.0, 2.0, 3.0]))
        eps = DatedSeries(days(3)[:1], np.array([5.0]))
        assert step_interpolate(eps, prices.days).days is prices.days
        assert ema(prices, 3).days is prices.days

    @pytest.mark.parametrize("dtype, kept", [("datetime64[D]", True), ("datetime64[s]", False),
                                             (">M8[D]", False)])
    def test_keeps_only_a_read_only_day_calendar_as_given(self, dtype, kept):
        calendar = np.array(days(3), dtype=dtype)
        calendar.flags.writeable = False
        s = DatedSeries(calendar, np.ones(3))
        assert (s.days is calendar) == kept == np.shares_memory(s.days, calendar)
        assert s.days.dtype == np.dtype("datetime64[D]") and s.dates == days(3)

    def test_keeps_a_read_only_float64_values_array_as_given(self):
        given = np.array([1.0, 2.0, 3.0])
        given.flags.writeable = False
        assert DatedSeries(days(3), given).values is given

    @pytest.mark.parametrize("dtype, writeable", [("float64", True), ("float32", False),
                                                  (">f8", False), (None, True)],
                             ids=["writeable", "float32", "big-endian", "list"])
    def test_copies_any_other_values(self, dtype, writeable):
        given = [1.0, 2.0, 3.0]
        if dtype is not None:
            given = np.array(given, dtype=dtype)
            given.flags.writeable = writeable
        s = DatedSeries(days(3), given)
        assert s.values is not given and not np.shares_memory(s.values, given)
        assert s.values.dtype == np.float64 and s.values.dtype.isnative
        assert not s.values.flags.writeable and s.values.tolist() == [1.0, 2.0, 3.0]

    def test_copies_a_masked_array_so_its_hidden_nan_is_refused(self):
        # np.isfinite on a masked array passes the masked cells
        given = np.ma.masked_invalid([1.0, np.nan, 3.0])
        given.flags.writeable = False
        with pytest.raises(ValueError, match="must be finite"):
            DatedSeries(days(3), given)

    @pytest.mark.parametrize("calendar, message", [
        (["2020-01-01", "NaT", "2020-01-03"], "dates must not be NaT, got NaT at position 1"),
        (["2020-01-03", "2020-01-01", "2020-01-05"],
         "dates must be strictly increasing: 2020-01-03 !< 2020-01-01"),
    ], ids=["NaT", "out-of-order"])
    def test_copies_a_masked_calendar_so_its_hidden_cells_are_refused(self, calendar, message):
        plain = np.array(calendar, dtype="datetime64[D]")
        given = np.ma.masked_array(plain, mask=[False, True, False])
        given.flags.writeable = False
        for dates in (plain, given):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                DatedSeries(dates, np.ones(3))

    def test_stores_a_masked_calendar_as_a_plain_copy(self):
        given = np.ma.masked_array(np.array(days(3), dtype="datetime64[D]"),
                                   mask=[False, True, False])
        given.flags.writeable = False
        s = DatedSeries(given, np.ones(3))
        assert type(s.days) is np.ndarray and not np.shares_memory(s.days, given)
        assert not s.days.flags.writeable and s.dates == days(3)


class TestReturnSeries:
    def test_accepts_boundary_adjacent_returns(self):
        s = ReturnSeries(days(2), np.array([-0.999999, 5.0]))

    def test_rejects_return_at_minus_one(self):
        with pytest.raises(ValueError, match="-1"):
            ReturnSeries(days(2), np.array([0.1, -1.0]))


class TestAlign:
    def test_keeps_intersection_only(self):
        d1, d2, d3 = days(3)
        a = DatedSeries((d1, d2), np.array([1.0, 2.0]))
        b = DatedSeries((d2, d3), np.array([5.0, 6.0]))
        dates, av, bv = align(a, b)
        assert_days_equal(dates, (d2,))
        np.testing.assert_array_equal(av, [2.0])
        np.testing.assert_array_equal(bv, [5.0])

    def test_self_alignment_is_identity(self):
        s = DatedSeries(days(5), np.arange(5.0))
        dates, av, bv = align(s, s)
        assert_days_equal(dates, s.dates)
        np.testing.assert_array_equal(av, s.values)
        np.testing.assert_array_equal(bv, s.values)

    def test_disjoint_raises(self):
        a = DatedSeries(days(3), np.ones(3))
        b = DatedSeries(days(3, start=date(2021, 1, 1)), np.ones(3))
        with pytest.raises(EmptyIntersectionError):
            align(a, b)

    def test_align_many_needs_a_series(self):
        with pytest.raises(InvalidParametersError, match="at least one series"):
            align_many([])

    def test_align_many_three_way(self):
        d = days(4)
        a = DatedSeries(d, np.arange(4.0))
        b = DatedSeries(d[1:], np.arange(3.0))
        c = DatedSeries(d[:3], np.arange(3.0) * 10)
        dates, arrays = align_many([a, b, c])
        assert_days_equal(dates, (d[1], d[2]))
        np.testing.assert_array_equal(arrays[0], [1.0, 2.0])
        np.testing.assert_array_equal(arrays[1], [0.0, 1.0])
        np.testing.assert_array_equal(arrays[2], [10.0, 20.0])


class TestSimpleReturns:
    def test_two_points(self):
        prices = DatedSeries(days(2), np.array([100.0, 110.0]))
        r = simple_returns(prices)
        assert len(r) == 1
        np.testing.assert_allclose(r.values, [0.10], rtol=1e-12)
        assert r.dates == (prices.dates[1],)

    def test_flat_prices_give_zero(self):
        prices = DatedSeries(days(3), np.array([100.0, 100.0, 100.0]))
        r = simple_returns(prices)
        np.testing.assert_array_equal(r.values, [0.0, 0.0])

    def test_halving_and_doubling(self):
        prices = DatedSeries(days(3), np.array([100.0, 50.0, 100.0]))
        np.testing.assert_allclose(simple_returns(prices).values, [-0.5, 1.0])

    def test_single_observation_raises(self):
        prices = DatedSeries(days(1), np.array([100.0]))
        with pytest.raises(TooShortError):
            simple_returns(prices)

    def test_shares_the_prices_calendar(self):
        prices = DatedSeries(days(3), np.array([100.0, 110.0, 121.0]))
        assert np.shares_memory(simple_returns(prices).days, prices.days)

    def test_nonpositive_price_names_the_date(self):
        prices = DatedSeries(days(3), np.array([100.0, 0.0, 50.0]))
        with pytest.raises(NonPositivePriceError, match="2020-01-02"):
            simple_returns(prices)

    @given(
        r=st.floats(min_value=-0.5, max_value=1.0),
        n=st.integers(min_value=2, max_value=40),
        p0=st.floats(min_value=0.1, max_value=1000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_recovers_constant_growth_rate(self, r, n, p0):
        prices = DatedSeries(days(n), p0 * np.power(1.0 + r, np.arange(n)))
        np.testing.assert_allclose(simple_returns(prices).values, r, atol=1e-12)


class TestEma:
    def test_constant_series_is_fixed_point(self):
        s = DatedSeries(days(40), np.full(40, 3.25))
        out = ema(s, 50)
        np.testing.assert_array_equal(out.values, s.values)

    def test_period_one_is_identity(self):
        s = DatedSeries(days(10), np.array([5.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]))
        np.testing.assert_array_equal(ema(s, 1).values, s.values)

    def test_impulse_decay(self):
        # period 3 gives alpha = 0.5; an initial impulse halves each step
        s = DatedSeries(days(5), np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(ema(s, 3).values,
                                      [1.0, 0.5, 0.25, 0.125, 0.0625])

    def test_output_stays_within_running_range(self):
        rng = np.random.default_rng(11)
        vals = rng.uniform(-5.0, 5.0, size=200)
        out = ema(DatedSeries(days(200), vals), 20).values
        lo = np.minimum.accumulate(vals)
        hi = np.maximum.accumulate(vals)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        vals = rng.uniform(0.0, 100.0, size=150)
        base = ema(DatedSeries(days(150), vals), 50).values
        shifted = ema(DatedSeries(days(150), vals + 10.0), 50).values
        np.testing.assert_allclose(shifted, base + 10.0, atol=1e-9)

    def test_rejects_bad_period(self):
        s = DatedSeries(days(5), np.ones(5))
        with pytest.raises(InvalidParametersError):
            ema(s, 0)

    @given(values=st.lists(st.one_of(st.floats(-1e3, 1e3),
                                     st.floats(allow_nan=False, allow_infinity=False),
                                     st.sampled_from([-1.7e308, 1.7e308])),
                           min_size=1, max_size=60),
           period=st.integers(1, 400))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_docstring_recursion(self, values, period):
        s = DatedSeries(days(len(values)), values)

        def recursion():
            # out[0] = in[0]; out[i] = out[i-1] + alpha * (in[i] - out[i-1])
            alpha = 2.0 / (period + 1.0)
            out = [s.values[0]]
            for i in range(1, len(s)):
                out.append(out[i - 1] + alpha * (s.values[i] - out[i - 1]))
            return out

        def outcome(run):
            try:
                return run()
            except FloatingPointError as exc:
                return type(exc), str(exc)

        with np.errstate(over="raise", invalid="raise", divide="raise"):
            expected = outcome(recursion)
            got = outcome(lambda: ema(s, period).values)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert [float(v).hex() for v in got] == [float(v).hex() for v in expected]

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=40),
           first=st.sampled_from([None, -0.0, 0.0]),
           period=st.integers(1, 400))
    @example(values=[-0.0], first=None, period=9)
    @example(values=[-0.0, 2.0, -3.5, 0.25, 1e-3, 7.0, -7.0, 8.0], first=None, period=3)
    @settings(max_examples=300, deadline=None)
    def test_blocks_match_the_docstring_recursion(self, values, first, period):
        # mostly runs of one day: the run path as dense input takes it
        if first is not None:
            values[0] = first
        s = DatedSeries(days(len(values)), values)
        alpha = 2.0 / (period + 1.0)
        expected = [float(s.values[0])]
        for x in s.values[1:].tolist():
            expected.append(expected[-1] + alpha * (x - expected[-1]))
        if not all(np.isfinite(expected)):
            return  # the numpy-scalar fallback runs; the test above covers it
        got = ema(s, period).values
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected]

    @staticmethod
    def numpy_recursion(s, period):
        """The docstring recursion on numpy scalars."""
        alpha = 2.0 / (period + 1.0)
        out = [s.values[0]]
        for x in s.values[1:]:
            out.append(out[-1] + alpha * (x - out[-1]))
        return out

    @pytest.mark.parametrize("errstate", [{"over": "raise"}, {"under": "raise"}])
    def test_error_after_the_first_block_is_the_recursions(self, errstate):
        # past the first block of floats: an overflow (-1.7e308 held, then
        # +1.7e308) or an underflow (1e-300 halving toward zero)
        n = _BLOCK + 200
        values = np.zeros(n)
        if "over" in errstate:
            values[n - 150:] = -1.7e308
            values[n - 100:] = 1.7e308
        else:
            values[n - 150] = 1e-300
        s = DatedSeries(days(n), values)
        with np.errstate(**errstate):
            with pytest.raises(FloatingPointError) as expected:
                self.numpy_recursion(s, 3)
            with pytest.raises(FloatingPointError) as got:
                ema(s, 3)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(("overflow encountered in scalar",
                                          "underflow encountered in scalar"))


DAYS = np.arange(np.datetime64("2020-01-01"), np.datetime64("2020-02-01"))


@st.composite
def step_values(draw):
    """EMA input as runs of bit-identical floats, each 1 to 8 days long; the
    values include both zeros and ones whose recursion overflows or underflows."""
    values = draw(st.lists(st.one_of(st.floats(-1e3, 1e3),
                                     st.floats(allow_nan=False, allow_infinity=False),
                                     st.sampled_from([0.0, -0.0, 1.7e308, -1.7e308, 1e-300,
                                                      -5e-324])),
                           min_size=1, max_size=12))
    lengths = draw(st.lists(st.integers(1, 8), min_size=len(values), max_size=len(values)))
    return [v for v, n in zip(values, lengths) for _ in range(n)]


class TestEmaRuns:
    """The run-by-run recursion against the docstring's, on step inputs."""

    @staticmethod
    def outcome(run):
        try:
            return [float(v).hex() for v in run()]
        except (FloatingPointError, ValueError) as exc:
            return type(exc), str(exc)

    @given(values=step_values(), period=st.integers(1, 400),
           errstate=st.sampled_from([{}, {"over": "raise", "invalid": "raise"},
                                     {"under": "raise"}]))
    @example(values=[-0.0, -0.0, 0.0, 0.0], period=3, errstate={})
    @example(values=[0.0, 0.0, -0.0, -0.0, 5.0, 5.0], period=1, errstate={})
    @example(values=[1e-300] * 2 + [0.0] * 8, period=3, errstate={"under": "raise"})
    @example(values=[-1.7e308] * 3 + [1.7e308] * 3, period=3,
             errstate={"over": "raise", "invalid": "raise"})
    @example(values=[-1.7e308] * 3 + [1.7e308] * 3, period=3, errstate={})
    @settings(max_examples=400, deadline=None)
    def test_matches_the_docstring_recursion(self, values, period, errstate):
        s = DatedSeries(days(len(values)), values)
        # what is not raised is ignored: a warning would fail the test
        with np.errstate(all="ignore", **errstate):
            # a series refuses a recursion that ends non-finite
            expected = self.outcome(
                lambda: DatedSeries(s.days, TestEma.numpy_recursion(s, period)).values)
            got = self.outcome(lambda: ema(s, period).values)
        assert got == expected

    @pytest.mark.parametrize("runs, days", [(5, 10), (6, 10), (1, 1), (1, 2), (2, 3)])
    def test_alternating_zero_runs(self, runs, days):
        # runs of -0.0 and 0.0 alternating: as floats they are all equal
        lengths = [days // runs + (i < days % runs) for i in range(runs)]
        values = [(-0.0, 0.0)[i % 2] for i, n in enumerate(lengths) for _ in range(n)]
        s = DatedSeries(DAYS[:days], values)
        got = [v.hex() for v in ema(s, 2).values.tolist()]
        assert got == [float(v).hex() for v in TestEma.numpy_recursion(s, 2)]
        assert got[0] == "-0x0.0p+0"


class TestStepInterpolate:
    def test_holds_last_value(self):
        sparse = DatedSeries.from_pairs(
            [(date(2020, 1, 1), 10.0), (date(2020, 4, 1), 12.0)])
        calendar = (date(2020, 1, 1), date(2020, 2, 1),
                    date(2020, 4, 1), date(2020, 5, 1))
        out = step_interpolate(sparse, calendar)
        assert out.dates == calendar
        np.testing.assert_array_equal(out.values, [10.0, 10.0, 12.0, 12.0])

    def test_single_point_extends_forward(self):
        sparse = DatedSeries.from_pairs([(date(2020, 1, 1), 7.0)])
        out = step_interpolate(sparse, days(30))
        np.testing.assert_array_equal(out.values, np.full(30, 7.0))

    def test_calendar_before_first_observation(self):
        sparse = DatedSeries.from_pairs([(date(2020, 6, 1), 7.0)])
        with pytest.raises(CalendarPrecedesDataError):
            step_interpolate(sparse, days(3))

    @pytest.mark.parametrize("calendar, message", [
        ((), "non-empty"),
        ((date(2020, 1, 2), date(2020, 1, 2)), "strictly increasing"),
        ((date(2020, 1, 3), date(2020, 1, 2)), "strictly increasing"),
        (DESCENT_PAST_INT64, "strictly increasing"),
    ], ids=["empty", "repeated-day", "descending", "descent-past-int64"])
    def test_rejects_a_bad_calendar(self, calendar, message):
        sparse = DatedSeries.from_pairs([(date(2020, 1, 1), 7.0)])
        with pytest.raises(InvalidParametersError, match=message):
            step_interpolate(sparse, calendar)

    def test_output_and_its_ema_share_the_given_calendar(self):
        sparse = DatedSeries.from_pairs([(date(2020, 1, 1), 7.0), (date(2020, 1, 9), 8.0)])
        prices = DatedSeries(days(30), np.ones(30))
        daily = step_interpolate(sparse, prices.days)
        assert daily.days is prices.days
        assert ema(daily, 5).days is prices.days

    def test_restriction_to_sparse_dates_recovers_values(self):
        sparse = DatedSeries.from_pairs(
            [(date(2020, 1, 1), 3.0), (date(2020, 2, 15), -1.0),
             (date(2020, 7, 9), 8.5)])
        calendar = days(250)
        out = step_interpolate(sparse, calendar)
        by_date = dict(zip(out.dates, out.values))
        for d, v in sparse.as_pairs():
            assert by_date[d] == v


class TestCalendarAgainstReference:
    @given(base=st.sampled_from(BASES), offsets=OFFSETS)
    @settings(max_examples=100, deadline=None)
    def test_dates_round_trip(self, base, offsets):
        dates = calendar_on(base, offsets)
        s = DatedSeries(dates, np.zeros(len(dates)))
        assert s.dates == tuple(dates)
        assert len(s) == len(dates)

    @given(base=st.sampled_from(BASES),
           offsets=st.lists(st.integers(0, 30), min_size=2, max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_order_error_names_first_bad_pair(self, base, offsets):
        dates = [base + timedelta(days=k) for k in offsets]
        expected = reference_order_error(dates)
        if expected is None:
            assert DatedSeries(dates, np.zeros(len(dates))).dates == tuple(dates)
        else:
            with pytest.raises(ValueError) as info:
                DatedSeries(dates, np.zeros(len(dates)))
            assert str(info.value) == expected

    @given(base=st.sampled_from(BASES),
           offsets=st.lists(OFFSETS, min_size=1, max_size=4),
           own=st.lists(st.booleans(), max_size=3),
           order=st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_align_many_matches_reference(self, base, offsets, own, order):
        # some series may be on the first series' own calendar, anywhere
        # after it: the first series again (the same days array), or
        # other values on an equal copy of its days
        series = [series_on(base, o, shift=100.0 * i) for i, o in enumerate(offsets)]
        first = series[0]
        rest = series[1:] + [first if same else
                             DatedSeries(first.days.copy(), first.values - 100.0 * (i + 1))
                             for i, same in enumerate(own)]
        order.shuffle(rest)
        series = [first, *rest]
        expected = reference_align_many(series)
        if expected is None:
            with pytest.raises(EmptyIntersectionError):
                align_many(series)
            return
        dates, columns = align_many(series)
        assert_days_equal(dates, expected[0])
        assert len(columns) == len(series)
        for got, want in zip(columns, expected[1]):
            np.testing.assert_array_equal(got, want)
        # each values array is the caller's own: writeable, and sharing no
        # memory with any input or other output, so it may be built on in place
        arrays = [a for s in series for a in (s.days, s.values)]
        for i, got in enumerate(columns):
            assert got.flags.writeable
            assert not any(np.shares_memory(got, a) for a in arrays + columns[:i])

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_step_interpolate_runs_match_reference(self, data):
        # sparse days on calendar days, between two calendar days (several
        # in one gap, so all but the last hold no day) and past its end,
        # with equal values in neighbouring sparse days
        sparse = sorted(data.draw(st.sets(st.integers(0, 60), min_size=1, max_size=25)))
        calendar = data.draw(st.sets(st.integers(sparse[0], 70), min_size=1, max_size=40))
        calendar = sorted(calendar | {sparse[0]} if data.draw(st.booleans()) else calendar)
        values = data.draw(st.lists(st.sampled_from([1.0, 2.0, -0.0, 0.0]),
                                    min_size=len(sparse), max_size=len(sparse)))
        base = date(2020, 1, 1)
        sparse = DatedSeries([base + timedelta(days=d) for d in sparse], values)
        calendar = calendar_on(base, calendar)
        out = step_interpolate(sparse, calendar)
        expected = reference_step(sparse, calendar)
        assert [v.hex() for v in out.values.tolist()] == [float(v).hex() for v in expected]

    @given(base=st.sampled_from(BASES), sparse=OFFSETS, calendar=OFFSETS)
    @settings(max_examples=150, deadline=None)
    def test_step_interpolate_matches_reference(self, base, sparse, calendar):
        sparse = series_on(base, sparse)
        calendar = calendar_on(base, calendar)
        if calendar[0] < sparse.dates[0]:
            first = f"{calendar[0].isoformat()}, before first observation {sparse.dates[0].isoformat()}"
            with pytest.raises(CalendarPrecedesDataError, match=f"starts {first}$"):
                step_interpolate(sparse, calendar)
            return
        out = step_interpolate(sparse, calendar)
        assert out.dates == tuple(calendar)
        np.testing.assert_array_equal(out.values, reference_step(sparse, calendar))
