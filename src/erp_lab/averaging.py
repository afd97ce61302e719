"""Averaging schemes for per-period returns.

Four ways to collapse a return sample into one rate: plain arithmetic
mean, compound (geometric) mean, a horizon-weighted blend of the two, and
an exponentially weighted mean that favours recent periods.

Each scheme reduces over the last axis.  A 1-D sample gives a Python
``float``; a ``(k, T)`` stack of k samples of T returns gives k values,
each bit-identical to the 1-D call on that row (numpy sums each row of a
C-ordered stack pairwise, exactly as it sums a 1-D array).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DecayOutOfRangeError,
    EmptyInputError,
    HorizonExceedsSampleError,
    InvalidParametersError,
    ReturnBelowMinusOneError,
)

KINDS = ("arithmetic", "geometric", "blume", "exp_weighted")


def _as_returns(returns) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(returns, dtype=float))  # a scalar is a one-element sample
    if arr.shape[-1] == 0:
        raise EmptyInputError("no returns to average")
    return arr


def _result(values: np.ndarray):
    """A Python float for one sample, the per-row values for a stack."""
    return float(values) if values.ndim == 0 else values


def arithmetic_mean(returns) -> float | np.ndarray:
    """Sum of returns divided by their count."""
    return _result(np.mean(_as_returns(returns), axis=-1))


def geometric_mean(returns) -> float | np.ndarray:
    """Compound mean: ``(prod(1 + r))**(1/n) - 1``.

    Every return must exceed -1.  Computed as ``expm1(mean(log1p(r)))``
    for numerical stability on long samples.
    """
    arr = _as_returns(returns)
    if np.any(arr <= -1.0):
        raise ReturnBelowMinusOneError("geometric mean undefined for returns <= -1")
    return _result(np.expm1(np.mean(np.log1p(arr), axis=-1)))


def blume_blend(returns, horizon_n: int) -> float | np.ndarray:
    """Horizon-weighted blend of arithmetic and geometric means.

    With sample length T and horizon N, the weights are (T-N)/(T-1) on the
    arithmetic mean and (N-1)/(T-1) on the geometric mean, so N=1 gives
    the pure arithmetic mean and N=T the pure geometric mean.  A sample of
    length one, whose horizon can only be 1, gives its arithmetic mean.
    """
    arr = _as_returns(returns)
    if horizon_n < 1:
        raise InvalidParametersError("blend horizon must be >= 1")
    t = arr.shape[-1]
    if horizon_n > t:
        raise HorizonExceedsSampleError(f"horizon {horizon_n} exceeds sample length {t}")
    if t == 1:
        return arithmetic_mean(arr)
    w_arith = (t - horizon_n) / (t - 1)
    w_geom = (horizon_n - 1) / (t - 1)
    return w_arith * arithmetic_mean(arr) + w_geom * geometric_mean(arr)


def exp_weighted_mean(returns, decay: float) -> float | np.ndarray:
    """Exponentially weighted mean with per-period decay in (0, 1].

    The most recent observation gets weight proportional to 1, the one
    before it ``decay``, then ``decay**2``, and so on; weights are
    normalized to sum to one.  ``decay == 1`` reduces to the arithmetic
    mean.  Each row's sum is ``weights.dot(row)`` from ``+0.0``, the
    definition; a matrix product would sum in another order and change the
    last bits.  On numpy 2, one ``np.vecdot(weights, rows)`` runs that dot
    function on every row of a C-ordered stack, so each row keeps its bits.
    """
    arr = _as_returns(returns)
    if not 0.0 < decay <= 1.0:
        raise DecayOutOfRangeError(f"decay must lie in (0, 1], got {decay}")
    t = arr.shape[-1]
    weights = np.power(decay, np.arange(t - 1, -1, -1, dtype=float))
    rows = arr.reshape(-1, t)
    # np.dot copies a reversed row and vecdot does not, so vecdot serves
    # C-ordered rows; np.dot takes a one-value row as a scalar product,
    # keeping -0.0, so + 0.0 sums from +0.0, as vecdot and np.mean do
    if rows.flags.c_contiguous and hasattr(np, "vecdot"):
        dots = np.vecdot(weights, rows)
    else:
        dots = np.fromiter(map(weights.dot, rows), float, len(rows)) + 0.0
    return _result(dots.reshape(arr.shape[:-1]) / weights.sum())


def _parsed(convert, text: str):
    """``convert(text)``, or ``None`` where it does not parse, so that the
    method's own check names the parameter it needs."""
    try:
        return convert(text)
    except ValueError:
        return None


@dataclass(frozen=True)
class AveragingMethod:
    """One of the four averaging schemes, with its parameter if any."""

    kind: str
    horizon: int | None = None
    decay: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        takes = {"blume": "horizon", "exp_weighted": "decay"}.get(self.kind)
        for name in ("horizon", "decay"):
            if name != takes and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} takes no {name}")
        if self.kind == "blume":
            # a whole number, as TwoStageInputs.short_years; inf % 1 is nan
            if self.horizon is None or not (self.horizon >= 1 and self.horizon % 1 == 0):
                raise ValueError("blume requires an integer horizon >= 1")
            # one label and hash for blume(5) and blume(5.0)
            object.__setattr__(self, "horizon", int(self.horizon))
        elif self.kind == "exp_weighted":
            if self.decay is None or not 0.0 < self.decay <= 1.0:
                raise ValueError("exp_weighted requires decay in (0, 1]")

    @classmethod
    def arithmetic(cls) -> "AveragingMethod":
        return cls("arithmetic")

    @classmethod
    def geometric(cls) -> "AveragingMethod":
        return cls("geometric")

    @classmethod
    def blume(cls, horizon: int) -> "AveragingMethod":
        return cls("blume", horizon=horizon)

    @classmethod
    def exp_weighted(cls, decay: float) -> "AveragingMethod":
        return cls("exp_weighted", decay=decay)

    @classmethod
    def from_string(cls, text: str) -> "AveragingMethod":
        """Parse ``arithmetic``, ``geometric``, ``blume:N``, or ``exp:DECAY``."""
        name, _, param = text.partition(":")
        if name == "arithmetic" and not param:
            return cls.arithmetic()
        if name == "geometric" and not param:
            return cls.geometric()
        if name == "blume" and param:
            return cls.blume(_parsed(int, param))
        if name in ("exp", "exp_weighted") and param:
            return cls.exp_weighted(_parsed(float, param))
        raise ValueError(f"unrecognized averaging method {text!r}")

    @property
    def label(self) -> str:
        if self.kind == "blume":
            return f"blume({self.horizon})"
        if self.kind == "exp_weighted":
            return f"exp({self.decay:g})"
        return self.kind

    def apply(self, returns) -> float | np.ndarray:
        """Average a 1-D sample to a float, or each row of a stack."""
        if self.kind == "arithmetic":
            return arithmetic_mean(returns)
        if self.kind == "geometric":
            return geometric_mean(returns)
        if self.kind == "blume":
            return blume_blend(returns, self.horizon)
        return exp_weighted_mean(returns, self.decay)
