"""Tests for return averaging: arithmetic, geometric, Blume, exponential."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erp_lab.averaging import (
    AveragingMethod,
    _blend,
    arithmetic_mean,
    blume_blend,
    exp_weighted_mean,
    geometric_mean,
)
from erp_lab.errors import (
    DecayOutOfRangeError,
    EmptyInputError,
    HorizonExceedsSampleError,
    InvalidParametersError,
    ReturnBelowMinusOneError,
)

returns_arrays = st.lists(
    st.floats(min_value=-0.9, max_value=3.0), min_size=1, max_size=50
).map(np.asarray)


class TestArithmetic:
    def test_two_values(self):
        assert arithmetic_mean(np.array([0.10, 0.20])) == pytest.approx(0.15, abs=1e-15)

    def test_constant(self):
        assert arithmetic_mean(np.full(7, 0.03)) == pytest.approx(0.03, abs=1e-15)

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            arithmetic_mean(np.array([]))


class TestGeometric:
    def test_constant_returns_unchanged(self):
        assert geometric_mean(np.full(5, 0.08)) == pytest.approx(0.08, abs=1e-12)

    def test_symmetric_swing(self):
        # compounding 1.1 * 0.9 = 0.99 over two periods
        got = geometric_mean(np.array([0.10, -0.10]))
        assert got == pytest.approx(math.sqrt(0.99) - 1.0, abs=1e-15)

    def test_single_value(self):
        assert geometric_mean(np.array([1.0])) == pytest.approx(1.0, abs=1e-15)

    def test_return_at_minus_one_raises(self):
        with pytest.raises(ReturnBelowMinusOneError):
            geometric_mean(np.array([0.5, -1.0]))

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            geometric_mean(np.array([]))

    @given(returns_arrays)
    @settings(max_examples=80, deadline=None)
    def test_never_exceeds_arithmetic(self, arr):
        g = geometric_mean(arr)
        a = arithmetic_mean(arr)
        assert g <= a + 1e-10
        if np.ptp(arr) > 1e-4:
            assert g < a


class TestBlume:
    def test_horizon_one_is_arithmetic(self):
        arr = np.array([0.12, -0.04, 0.3, 0.07])
        assert blume_blend(arr, 1) == arithmetic_mean(arr)

    def test_horizon_t_is_geometric(self):
        arr = np.array([0.12, -0.04, 0.3, 0.07])
        assert blume_blend(arr, 4) == geometric_mean(arr)

    def test_interior_blend(self):
        # T = 4, N = 2: weights 2/3 arithmetic + 1/3 geometric; the
        # arithmetic mean of the alternating sample is exactly zero and
        # the geometric mean is (0.99^2)^(1/4) - 1 = sqrt(0.99) - 1
        arr = np.array([0.10, -0.10, 0.10, -0.10])
        expected = (math.sqrt(0.99) - 1.0) / 3.0
        assert blume_blend(arr, 2) == pytest.approx(expected, abs=1e-12)

    def test_single_observation(self):
        assert blume_blend(np.array([0.07]), 1) == 0.07

    # k rows of t returns above -1; a scale of 0 gives rows of +0.0 and -0.0
    @given(st.integers(1, 40), st.integers(1, 8), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 1e-3, 0.5, 2.0]))
    @example(t=1, k=8, seed=0, scale=0.0)
    @example(t=2, k=8, seed=0, scale=0.0)
    @settings(max_examples=200, deadline=None)
    def test_horizon_one_is_arithmetic_bit_for_bit(self, t, k, seed, scale):
        # one sign of zero for a sample of -0.0, as a sum from +0.0 gives;
        # a one-value row's exponential weighting too, on either dot path
        stack = np.expm1(np.random.default_rng(seed).normal(0.0, 1.0, (k, t)) * scale)
        expected = [float.hex(v) for v in arithmetic_mean(stack).tolist()]
        assert [float.hex(v) for v in blume_blend(stack, 1).tolist()] == expected
        assert [float.hex(blume_blend(row, 1)) for row in stack] == expected
        if stack.shape[1] == 1:
            for vecdot_removed in (False, True):
                with pytest.MonkeyPatch.context() as mp:
                    if vecdot_removed:
                        mp.delattr(np, "vecdot", raising=False)
                    got = [exp_weighted_mean(stack, 0.5).tolist(),
                           [exp_weighted_mean(row, 0.5) for row in stack]]
                assert [[float.hex(v) for v in values] for values in got] == [expected] * 2

    # the blend rule fed a C-ordered stack's precomputed means, as the
    # report feeds it, against blume_blend on that stack: horizon 1, t and
    # beyond t, a one-return sample, and rows of +0.0 and -0.0 at scale 0
    @given(st.integers(1, 12), st.integers(1, 8), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 1e-3, 0.5, 2.0]), st.integers(1, 15))
    @example(t=1, k=4, seed=0, scale=0.0, horizon=1)
    @example(t=1, k=3, seed=1, scale=0.5, horizon=1)
    @example(t=1, k=3, seed=1, scale=0.5, horizon=2)
    @example(t=6, k=5, seed=2, scale=0.5, horizon=6)
    @example(t=6, k=5, seed=2, scale=0.5, horizon=7)
    @example(t=9, k=2, seed=3, scale=2.0, horizon=15)
    @settings(max_examples=200, deadline=None)
    def test_blend_of_precomputed_means_matches_blume_blend(self, t, k, seed, scale, horizon):
        stack = np.expm1(np.random.default_rng(seed).normal(0.0, 1.0, (k, t)) * scale)
        assert stack.flags.c_contiguous
        means = arithmetic_mean(stack), geometric_mean(stack)
        blended = outcome(lambda _: _blend(t, horizon, lambda: means[0], lambda: means[1]), stack)
        expected = outcome(lambda r: blume_blend(r, horizon), stack)
        if horizon > t:
            # the same error type and message
            assert blended == expected == (HorizonExceedsSampleError,
                                           f"horizon {horizon} exceeds sample length {t}")
        else:
            assert [float.hex(v) for v in blended.tolist()] == [
                float.hex(v) for v in expected.tolist()]

    def test_blend_computes_no_mean_it_does_not_weight(self):
        def unused():
            raise AssertionError("mean computed")

        # a refused horizon computes neither mean, a one-return sample only
        # the arithmetic one
        with pytest.raises(HorizonExceedsSampleError):
            _blend(2, 3, unused, unused)
        assert _blend(1, 1, lambda: 0.25, unused) == 0.25

    def test_horizon_beyond_sample_raises(self):
        with pytest.raises(HorizonExceedsSampleError):
            blume_blend(np.array([0.1, 0.2]), 3)

    def test_horizon_below_one_raises(self):
        with pytest.raises(InvalidParametersError):
            blume_blend(np.array([0.1, 0.2]), 0)

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            blume_blend(np.array([]), 1)

    @given(returns_arrays, st.integers(min_value=1, max_value=50))
    @settings(max_examples=80, deadline=None)
    def test_lies_between_the_two_means(self, arr, horizon):
        if horizon > len(arr):
            horizon = len(arr)
        b = blume_blend(arr, horizon)
        lo = min(arithmetic_mean(arr), geometric_mean(arr))
        hi = max(arithmetic_mean(arr), geometric_mean(arr))
        assert lo - 1e-12 <= b <= hi + 1e-12


class TestExpWeighted:
    def test_decay_one_is_arithmetic(self):
        arr = np.array([0.05, 0.15, -0.02])
        assert exp_weighted_mean(arr, 1.0) == pytest.approx(
            arithmetic_mean(arr), abs=1e-15)

    def test_recent_observation_dominates(self):
        # weights 0.5 and 1 on [0, 0.10]
        got = exp_weighted_mean(np.array([0.0, 0.10]), 0.5)
        assert got == pytest.approx(0.10 / 1.5, abs=1e-15)

    def test_single_value_any_decay(self):
        assert exp_weighted_mean(np.array([0.42]), 0.3) == pytest.approx(0.42)

    @pytest.mark.parametrize("decay", [0.0, -0.5, 1.0001, 2.0])
    def test_decay_out_of_range(self, decay):
        with pytest.raises(DecayOutOfRangeError):
            exp_weighted_mean(np.array([0.1]), decay)

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            exp_weighted_mean(np.array([]), 0.9)

    def test_stays_within_sample_range(self):
        rng = np.random.default_rng(3)
        arr = rng.uniform(-0.4, 0.6, size=30)
        got = exp_weighted_mean(arr, 0.97)
        assert arr.min() - 1e-12 <= got <= arr.max() + 1e-12


# from_string's input: names it knows or nearly knows (an alias, case,
# spaces), and parameters spelled the way int or float refuses or reads in
# its own way ("1_000", " 3"); None is no colon
KNOWN_NAMES = ["arithmetic", "geometric", "blume", "exp", "exp_weighted", "Blume", "", " exp",
               "median", "arithmetic "]
KNOWN_PARAMETERS = [None, "", "5", "5.0", "1e3", "nan", "5:6", "0.5", "1", "1.0", "0", "-1",
                    "inf", " 3", "abc", "2.5", "1_000", "0.95 ", "1e-3", "+0.0", "6"]


def method_text(name, param):
    return name if param is None else f"{name}:{param}"


def raised_or(call, arg):
    try:
        return call(arg)
    except Exception as exc:
        return type(exc), str(exc)


def from_string_by_hand(text):
    """``AveragingMethod.from_string`` with each scheme's rule written out."""
    name, _, param = text.partition(":")
    if name == "arithmetic" and not param:
        return AveragingMethod.arithmetic()
    if name == "geometric" and not param:
        return AveragingMethod.geometric()
    if name == "blume" and param:
        try:
            horizon = int(param)
        except ValueError:
            horizon = None
        return AveragingMethod.blume(horizon)
    if name in ("exp", "exp_weighted") and param:
        try:
            decay = float(param)
        except ValueError:
            decay = None
        return AveragingMethod.exp_weighted(decay)
    raise ValueError(f"unrecognized averaging method {text!r}")


def label_by_hand(method):
    if method.kind == "blume":
        return f"blume({method.horizon})"
    if method.kind == "exp_weighted":
        return f"exp({method.decay:g})"
    return method.kind


def apply_by_hand(method, returns):
    if method.kind == "arithmetic":
        return arithmetic_mean(returns)
    if method.kind == "geometric":
        return geometric_mean(returns)
    if method.kind == "blume":
        return blume_blend(returns, method.horizon)
    return exp_weighted_mean(returns, method.decay)


class TestAveragingMethod:
    def test_from_string_variants(self):
        assert AveragingMethod.from_string("arithmetic").kind == "arithmetic"
        assert AveragingMethod.from_string("geometric").kind == "geometric"
        m = AveragingMethod.from_string("blume:5")
        assert (m.kind, m.horizon) == ("blume", 5)
        m = AveragingMethod.from_string("exp:0.95")
        assert (m.kind, m.decay) == ("exp_weighted", 0.95)
        m = AveragingMethod.from_string("exp_weighted:1")
        assert (m.kind, m.decay) == ("exp_weighted", 1.0)

    @pytest.mark.parametrize("text", ["median", "blume", "blume:x", "exp:", "exp:abc", "",
                                      "arithmetic:5", "geometric:0.5", "exp_weighted", "Blume:5",
                                      "blume:5.0", "blume:5:6", "exp:nan"])
    def test_from_string_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            AveragingMethod.from_string(text)

    def test_labels(self):
        assert AveragingMethod.arithmetic().label == "arithmetic"
        assert AveragingMethod.geometric().label == "geometric"
        assert AveragingMethod.blume(5).label == "blume(5)"
        assert AveragingMethod.exp_weighted(0.95).label == "exp(0.95)"

    def test_apply_dispatches(self):
        arr = np.array([0.10, -0.10, 0.10, -0.10])
        assert AveragingMethod.arithmetic().apply(arr) == arithmetic_mean(arr)
        assert AveragingMethod.geometric().apply(arr) == geometric_mean(arr)
        assert AveragingMethod.blume(2).apply(arr) == blume_blend(arr, 2)
        assert AveragingMethod.exp_weighted(0.9).apply(arr) == exp_weighted_mean(arr, 0.9)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AveragingMethod("blume")
        with pytest.raises(ValueError):
            AveragingMethod("exp_weighted")
        with pytest.raises(ValueError):
            AveragingMethod("harmonic")

    @pytest.mark.parametrize("horizon", [2.5, 0.5, math.inf, math.nan])
    def test_blume_horizon_must_be_whole(self, horizon):
        with pytest.raises(ValueError, match="integer horizon"):
            AveragingMethod("blume", horizon=horizon)

    def test_whole_float_horizon_is_accepted(self):
        # the rule TwoStageInputs.short_years follows
        assert AveragingMethod("blume", horizon=5.0).horizon == 5

    def test_equal_blume_methods_share_label_and_hash(self):
        given_float = AveragingMethod("blume", horizon=5.0)
        assert given_float == AveragingMethod.blume(5)
        assert given_float.label == AveragingMethod.blume(5).label == "blume(5)"
        assert hash(given_float) == hash(AveragingMethod.blume(5))
        assert type(given_float.horizon) is int

    @pytest.mark.parametrize("kind, params, name", [
        ("blume", {"horizon": 5, "decay": 0.5}, "decay"),
        ("exp_weighted", {"decay": 0.9, "horizon": 3}, "horizon"),
        ("arithmetic", {"horizon": 2}, "horizon"),
        ("geometric", {"decay": 0.5}, "decay"),
    ])
    def test_parameter_the_kind_does_not_take(self, kind, params, name):
        with pytest.raises(ValueError, match=f"^{kind} takes no {name}$"):
            AveragingMethod(kind, **params)

    def test_known_texts_match_the_rules_written_out(self):
        for name, param in itertools.product(KNOWN_NAMES, KNOWN_PARAMETERS):
            self.check_by_hand(method_text(name, param), 0)

    @given(name=st.sampled_from(KNOWN_NAMES) | st.text(max_size=8),
           param=st.sampled_from(KNOWN_PARAMETERS) | st.text(max_size=4),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_drawn_texts_match_the_rules_written_out(self, name, param, seed):
        self.check_by_hand(method_text(name, param), seed)

    @staticmethod
    def check_by_hand(text, seed):
        """from_string, label and apply on ``text`` give what the rules
        written out give: the same method, or error type and message."""
        got = raised_or(AveragingMethod.from_string, text)
        want = raised_or(from_string_by_hand, text)
        assert (repr(got), type(getattr(got, "horizon", None))) == \
            (repr(want), type(getattr(want, "horizon", None)))
        if isinstance(got, AveragingMethod):
            assert got.label == label_by_hand(got)
            stack = np.random.default_rng(seed).normal(0.05, 0.2, (2, 5))
            for returns in (stack, stack[0]):
                got_mean = raised_or(got.apply, returns)
                want_mean = raised_or(lambda r: apply_by_hand(got, r), returns)
                assert repr(got_mean) == repr(want_mean)
                if not isinstance(got_mean, tuple):
                    assert np.asarray(got_mean).tobytes() == np.asarray(want_mean).tobytes()


def one_sample_reference(method, sample):
    """Each scheme's 1-D definition from before stacks were accepted."""
    if method.kind == "arithmetic":
        return float(np.mean(sample))
    if method.kind == "geometric":
        return float(np.expm1(np.mean(np.log1p(sample))))
    t = sample.size
    if method.kind == "blume":
        if t == 1:
            return one_sample_reference(AveragingMethod.arithmetic(), sample)
        n = method.horizon
        return ((t - n) / (t - 1) * one_sample_reference(AveragingMethod.arithmetic(), sample)
                + (n - 1) / (t - 1) * one_sample_reference(AveragingMethod.geometric(), sample))
    weights = np.power(method.decay, np.arange(t - 1, -1, -1, dtype=float))
    return float((np.dot(weights, sample) + 0.0) / weights.sum())


def outcome(apply, returns):
    try:
        return apply(returns)
    except (HorizonExceedsSampleError, ReturnBelowMinusOneError) as exc:
        return type(exc), str(exc)


@st.composite
def stacked_samples(draw):
    """A return series and a (k, T) stack of its T-row windows gathered the
    way the historical report gathers them, from repeated, unsorted starts.
    T runs to 300, across numpy's 8-wide unrolled sum and its 128-element
    pairwise blocks."""
    t = draw(st.integers(1, 300))
    length = t + draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = np.expm1(rng.normal(0.05, draw(st.sampled_from([1e-3, 0.2, 1.5])), length))
    if draw(st.booleans()) and draw(st.booleans()):
        series[draw(st.integers(0, length - 1))] = -1.0  # geometric mean undefined
    starts = draw(st.lists(st.integers(0, length - t), min_size=1, max_size=12))
    stack = series[np.asarray(starts)[:, None] + np.arange(t)]
    methods = [AveragingMethod.arithmetic(), AveragingMethod.geometric(),
               AveragingMethod.blume(draw(st.integers(1, t + 2))),
               AveragingMethod.exp_weighted(draw(st.floats(0.01, 1.0)))]
    return series, starts, stack, methods


class TestStackedSamples:
    @given(stacked_samples())
    @settings(max_examples=300, deadline=None)
    def test_each_row_is_bit_identical_to_the_one_sample_call(self, drawn):
        series, starts, stack, methods = drawn
        t = stack.shape[1]
        for method in methods:
            rows = [outcome(method.apply, series[s:s + t]) for s in starts]
            stacked = outcome(method.apply, stack)
            errors = [row for row in rows if isinstance(row, tuple)]
            if errors:
                assert stacked == errors[0]
                continue
            assert all(type(row) is float for row in rows)
            assert isinstance(stacked, np.ndarray) and stacked.shape == (len(starts),)
            expected = [one_sample_reference(method, series[s:s + t]) for s in starts]
            assert [float.hex(v) for v in rows] == [float.hex(v) for v in expected]
            assert [float.hex(v) for v in stacked.tolist()] == [float.hex(v) for v in expected]

    def test_empty_rows_raise_as_an_empty_sample_does(self):
        for apply in (arithmetic_mean, geometric_mean, lambda r: blume_blend(r, 1),
                      lambda r: exp_weighted_mean(r, 0.9)):
            with pytest.raises(EmptyInputError, match="no returns to average"):
                apply(np.empty((3, 0)))


@st.composite
def exp_weighted_stacks(draw):
    """A (k, T) stack of 1-40 rows of 1-300 returns, with signed zeros,
    subnormals and values near 1e305 among them, a decay in (0, 1], and the
    stack C-ordered, Fortran-ordered, strided or reversed along its rows."""
    k, t = draw(st.integers(1, 40)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a scale of 0 gives rows of +0.0 and -0.0; 300 values of 1e305 stay finite
    scale = draw(st.sampled_from([0.0, 1e-310, 1e-3, 1.0, 1e300]))
    stack = rng.normal(0.0, 1.0, (k, 2 * t)) * scale
    for i, j, value in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, 2 * t - 1),
                                               st.sampled_from([-0.0, 5e-324, -1e-310, 1e305,
                                                                -1e305])), max_size=8)):
        stack[i, j] = value
    layout = draw(st.sampled_from(["C", "F", "strided", "reversed"]))
    stack = {"C": stack[:, :t].copy(), "F": np.asfortranarray(stack[:, :t]),
             "strided": stack[:, ::2], "reversed": stack[:, t - 1::-1]}[layout]
    decay = draw(st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from([5e-324, 0.5, 1.0]))
    return stack, decay


class TestExpWeightedRows:
    """The stacked exponential weighting against its definition, one
    ``weights.dot(row)`` per row summed from ``+0.0``, on numpy's ``vecdot``
    path (numpy 2) and with ``vecdot`` removed, the path numpy < 2 takes."""

    @pytest.mark.parametrize("vecdot_removed", [False, True])
    @given(drawn=exp_weighted_stacks())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_row_definition(self, vecdot_removed, drawn):
        stack, decay = drawn
        t = stack.shape[1]
        weights = np.power(decay, np.arange(t - 1, -1, -1, dtype=float))
        expected = [float.hex(float((weights.dot(row) + 0.0) / weights.sum())) for row in stack]
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            if vecdot_removed:
                mp.delattr(np, "vecdot", raising=False)
            elif hasattr(np, "vecdot"):
                vecdot = np.vecdot
                mp.setattr(np, "vecdot", lambda *args: calls.append(args) or vecdot(*args))
            stacked = exp_weighted_mean(stack, decay)
            stack_calls = len(calls)
            rows = [exp_weighted_mean(row, decay) for row in stack]
        assert isinstance(stacked, np.ndarray) and stacked.shape == (len(stack),)
        assert [float.hex(v) for v in stacked.tolist()] == expected
        assert all(type(v) is float for v in rows)
        assert [float.hex(v) for v in rows] == expected
        # a C-ordered stack takes one vecdot call
        fast = not vecdot_removed and hasattr(np, "vecdot")
        assert stack_calls == int(fast and stack.flags.c_contiguous)
