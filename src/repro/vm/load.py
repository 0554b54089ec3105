"""Background-load models: compute-time slowdown on timeshared hosts.

The paper notes that "background processor loads cause the computation
times on processors to vary slightly with time".  A load model maps the
current virtual time to a multiplicative slowdown factor >= 1 applied
to compute durations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class BackgroundLoad(ABC):
    """Maps virtual time to a compute-slowdown factor (>= 1)."""

    @abstractmethod
    def slowdown(self, now: float) -> float:
        """Multiplicative factor applied to compute durations at ``now``."""


class RandomWalkLoad(BackgroundLoad):
    """Mean-reverting random-walk load, piecewise constant in time.

    The factor is resampled every ``interval`` of virtual time as::

        level <- clip(level + N(0, step) - reversion * (level - mean), 0, max_level)
        slowdown = 1 + level

    which gives slowly drifting background load like other users coming
    and going on a timeshared workstation.  Fully deterministic given
    the seed; queries between resample points return the held level,
    and the walk is advanced lazily from the last query time.
    """

    def __init__(
        self,
        mean: float = 0.1,
        step: float = 0.05,
        reversion: float = 0.2,
        interval: float = 1.0,
        max_level: float = 2.0,
        seed: int = 0,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if not 0 <= reversion <= 1:
            raise ValueError("reversion must be in [0, 1]")
        if mean < 0 or step < 0 or max_level < 0:
            raise ValueError("mean, step and max_level must be >= 0")
        self.mean = mean
        self.step = step
        self.reversion = reversion
        self.interval = interval
        self.max_level = max_level
        self._rng = np.random.default_rng(seed)
        self._level = mean
        self._epoch = 0  # number of resamples applied so far

    def slowdown(self, now: float) -> float:
        if now < 0:
            raise ValueError("now must be >= 0")
        target_epoch = int(now / self.interval)
        while self._epoch < target_epoch:
            noise = float(self._rng.normal(0.0, self.step))
            self._level += noise - self.reversion * (self._level - self.mean)
            self._level = min(max(self._level, 0.0), self.max_level)
            self._epoch += 1
        return 1.0 + self._level

    def __repr__(self) -> str:
        return (
            f"RandomWalkLoad(mean={self.mean}, step={self.step}, "
            f"interval={self.interval})"
        )
