"""Per-message latency models.

A :class:`LatencyModel` maps a message (source, destination, send
time) to a delay in seconds.  Models compose by wrapping, so the
calibrated platform can express e.g. *"fixed endpoint latency +
log-normal jitter + a transient spike on the P1→P2 path at t≈0"* as a
single object.  The same object delays messages on every clocked
backend: the DES networks draw from it in virtual seconds, and the mp
pipe transport in wall seconds, when the receiver pumps the message
off its pipe.

All randomness flows through a ``numpy.random.Generator`` owned by the
model, seeded at construction — two models built with the same seed
produce identical delay sequences.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np


class LatencyModel(ABC):
    """Maps one message to a transmission delay (seconds on the run's clock)."""

    @abstractmethod
    def delay(self, src: int, dst: int, now: float) -> float:
        """Delay for a message from ``src`` to ``dst`` sent at ``now``.

        Parameters
        ----------
        src, dst:
            Integer processor ranks.
        now:
            The message's send time on the run's clock (lets models
            express transient effects).
        """


@dataclass(frozen=True)
class ConstantLatency(LatencyModel):
    """Fixed delay for every message regardless of endpoints."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"negative latency: {self.seconds}")

    def delay(self, src: int, dst: int, now: float) -> float:
        return self.seconds


class StochasticLatency(LatencyModel):
    """Multiplies a base model by log-normal jitter (median 1).

    ``sigma`` is the log-space standard deviation; sigma = 0 reduces to
    the base model exactly.  Models the "significant variations due to
    non-deterministic network traffic" the paper reports.
    """

    def __init__(self, base: LatencyModel, sigma: float = 0.25, seed: int = 0) -> None:
        if sigma < 0:
            raise ValueError("sigma must be >= 0")
        self.base = base
        self.sigma = sigma
        self._rng = np.random.default_rng(seed)

    def delay(self, src: int, dst: int, now: float) -> float:
        d = self.base.delay(src, dst, now)
        if self.sigma == 0.0:
            return d
        return d * float(math.exp(self._rng.normal(0.0, self.sigma)))

    def __repr__(self) -> str:
        return f"StochasticLatency({self.base!r}, sigma={self.sigma})"


@dataclass(frozen=True)
class Spike:
    """One transient extra delay on a specific path and time window.

    Any message from ``src`` to ``dst`` *sent* in ``[t_start, t_end)``
    suffers ``extra`` additional seconds of delay.  ``src``/``dst`` of
    ``None`` match any endpoint.
    """

    extra: float
    t_start: float = 0.0
    t_end: float = float("inf")
    src: Optional[int] = None
    dst: Optional[int] = None

    def applies(self, src: int, dst: int, now: float) -> bool:
        """Whether this spike hits a message sent (src→dst) at ``now``."""
        if not self.t_start <= now < self.t_end:
            return False
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        return True


@dataclass(frozen=True)
class TransientSpikes(LatencyModel):
    """Base model plus a list of :class:`Spike` transients.

    Reproduces the Fig. 4 scenario: "the first message from P1 to P2 is
    delayed in transit" — a single spike on that path at t = 0.
    """

    base: LatencyModel
    spikes: Sequence[Spike] = field(default_factory=tuple)

    def delay(self, src: int, dst: int, now: float) -> float:
        d = self.base.delay(src, dst, now)
        for spike in self.spikes:
            if spike.applies(src, dst, now):
                d += spike.extra
        return d



def latency_model(latency: float, jitter: float = 0.0, seed: int = 0) -> LatencyModel:
    """A run's injected delay: ``latency`` seconds per message, times a
    log-normal draw of sigma ``jitter`` (seeded by ``seed``) when
    ``jitter > 0``."""
    model: LatencyModel = ConstantLatency(latency)
    if jitter > 0:
        model = StochasticLatency(model, sigma=jitter, seed=seed)
    return model
