"""Speculation functions: extrapolate a remote block from its history.

The paper (Section 3.1) defines the speculated value as a function of
the last BW received values — the *backward window*::

    x*_i(t) = w_1 x_i(t-1) + w_2 x_i(t-2) + ...

All speculators here operate on whole *blocks* (numpy arrays holding a
processor's variables) and receive ``(times, values)`` pairs rather
than assuming consecutive samples, because under a forward window > 1
the history can have gaps (an intermediate message may still be in
flight).

A speculator degrades gracefully: with fewer history points than its
backward window it uses what is available, bottoming out at a
zero-order hold of the single most recent value.  The driver guarantees
at least one point (every processor knows X(0)).
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np


class Speculator(ABC):
    """Extrapolates a block's value at a future time from its history."""

    #: Number of past values the speculator would like (the paper's BW).
    backward_window: int = 1

    @abstractmethod
    def extrapolate(
        self,
        times: Sequence[float],
        values: Sequence[np.ndarray],
        target: float,
    ) -> np.ndarray:
        """Speculate the block value at time ``target``.

        Parameters
        ----------
        times:
            Strictly increasing iteration indices of the known values.
        values:
            Block values at those times (same length as ``times``);
            the last entry is the most recent.
        target:
            The iteration index to speculate (``> times[-1]``).

        Returns
        -------
        A *new* array (never aliasing an input) with the speculated value.
        """

    @staticmethod
    def _validate(times: Sequence[float], values: Sequence[np.ndarray], target: float) -> None:
        if len(times) != len(values):
            raise ValueError("times and values must have equal length")
        if not times:
            raise ValueError("speculation needs at least one history point")
        if not all(map(operator.lt, times, times[1:])):
            raise ValueError("times must be strictly increasing")
        if target <= times[-1]:
            raise ValueError(
                f"target {target} is not in the future of last sample {times[-1]}"
            )


class ZeroOrderHold(Speculator):
    """x*(t) = x(t_last): hold the most recent value (BW = 1).

    The cheapest possible speculation; exact whenever variables are
    constant between iterations.
    """

    backward_window = 1

    def extrapolate(self, times, values, target):
        self._validate(times, values, target)
        return np.array(values[-1], copy=True)


class LinearExtrapolation(Speculator):
    """First-order extrapolation from the last two samples (BW = 2).

    ``x*(t) = x(t1) + (x(t1) - x(t0)) / (t1 - t0) * (t - t1)``

    This is the discrete analogue of the paper's constant-velocity
    speculation (Eq. 10) when the velocity is estimated from history
    rather than transmitted.  With one point it degrades to a hold.
    """

    backward_window = 2

    def extrapolate(self, times, values, target):
        self._validate(times, values, target)
        if len(values) == 1:
            return np.array(values[-1], copy=True)
        t0, t1 = times[-2], times[-1]
        v0, v1 = np.asarray(values[-2]), np.asarray(values[-1])
        slope = (v1 - v0) / (t1 - t0)
        return v1 + slope * (target - t1)


class PolynomialExtrapolation(Speculator):
    """Order-``order`` Lagrange extrapolation over the last order+1 samples.

    Higher orders track smooth trajectories more closely but amplify
    noise — the accuracy/complexity trade-off the paper attributes to
    larger backward windows.  Degrades to the highest order the
    available history supports.
    """

    def __init__(self, order: int = 2) -> None:
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        self.backward_window = order + 1

    def extrapolate(self, times, values, target):
        self._validate(times, values, target)
        k = min(self.backward_window, len(values))
        ts = np.asarray(times[-k:], dtype=float)
        vs = [np.asarray(v) for v in values[-k:]]
        # Lagrange basis evaluated at the target time.
        result = np.zeros_like(vs[0], dtype=float)
        for i in range(k):
            weight = 1.0
            for j in range(k):
                if i != j:
                    weight *= (target - ts[j]) / (ts[i] - ts[j])
            result = result + weight * vs[i]
        return result

    def __repr__(self) -> str:
        return f"PolynomialExtrapolation(order={self.order})"

