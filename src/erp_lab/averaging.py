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

def _as_returns(returns) -> np.ndarray:
    arr = np.asarray(returns, dtype=float)
    if arr.ndim == 0:  # a scalar is a one-element sample
        arr = arr.reshape(1)
    if arr.shape[-1] == 0:
        raise EmptyInputError("no returns to average")
    return arr


def _result(values: np.ndarray):
    """A Python float for one sample, the per-row values for a stack."""
    return float(values) if values.ndim == 0 else values


def arithmetic_mean(returns) -> float | np.ndarray:
    """Sum of returns divided by their count."""
    arr = _as_returns(returns)  # np.mean's add.reduce and division, less its wrapper
    return _result(arr.sum(axis=-1) / arr.shape[-1])


def geometric_mean(returns) -> float | np.ndarray:
    """Compound mean: ``(prod(1 + r))**(1/n) - 1``.

    Every return must exceed -1.  Computed as ``expm1(mean(log1p(r)))``
    for numerical stability on long samples.
    """
    arr = _as_returns(returns)
    if (arr <= -1.0).any():
        raise ReturnBelowMinusOneError("geometric mean undefined for returns <= -1")
    logs = np.log1p(arr)
    return _result(np.expm1(logs.sum(axis=-1) / logs.shape[-1]))


def blume_blend(returns, horizon_n: int) -> float | np.ndarray:
    """Horizon-weighted blend of arithmetic and geometric means.

    With sample length T and horizon N, the weights are (T-N)/(T-1) on the
    arithmetic mean and (N-1)/(T-1) on the geometric mean, so N=1 gives
    the pure arithmetic mean and N=T the pure geometric mean.  A sample of
    length one, whose horizon can only be 1, gives its arithmetic mean.
    """
    arr = _as_returns(returns)
    return _blend(arr.shape[-1], horizon_n, lambda: arithmetic_mean(arr),
                  lambda: geometric_mean(arr))


def _blend(t: int, horizon_n: int, arithmetic, geometric):
    """:func:`blume_blend` of ``t`` returns whose means ``arithmetic()`` and
    ``geometric()`` give, each called only once the horizon is checked."""
    if horizon_n < 1:
        raise InvalidParametersError("blend horizon must be >= 1")
    if horizon_n > t:
        raise HorizonExceedsSampleError(f"horizon {horizon_n} exceeds sample length {t}")
    if t == 1:
        return arithmetic()
    w_arith = (t - horizon_n) / (t - 1)
    w_geom = (horizon_n - 1) / (t - 1)
    return w_arith * arithmetic() + w_geom * geometric()


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


# kind: (the parameter it takes, from_string's reader of that parameter,
# from_string's name for the kind, label format, averaging function)
_SCHEMES = {
    "arithmetic": (None, None, "arithmetic", "arithmetic", arithmetic_mean),
    "geometric": (None, None, "geometric", "geometric", geometric_mean),
    "blume": ("horizon", int, "blume", "blume({})", blume_blend),
    "exp_weighted": ("decay", float, "exp", "exp({:g})", exp_weighted_mean),
}
KINDS = tuple(_SCHEMES)


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
        takes = _SCHEMES[self.kind][0]
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
        for kind, (takes, convert, alias, _, _) in _SCHEMES.items():
            if name in (kind, alias) and bool(param) == bool(takes):
                return cls(kind, **({takes: _parsed(convert, param)} if takes else {}))
        raise ValueError(f"unrecognized averaging method {text!r}")

    @property
    def label(self) -> str:
        takes, _, _, label, _ = _SCHEMES[self.kind]
        return label.format(getattr(self, takes)) if takes else label

    def apply(self, returns) -> float | np.ndarray:
        """Average a 1-D sample to a float, or each row of a stack."""
        takes, _, _, _, average = _SCHEMES[self.kind]
        return average(returns, getattr(self, takes)) if takes else average(returns)
