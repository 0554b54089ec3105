"""Forward-window policies: who decides each rank's FW, and when.

The engine consults its policy once per completed iteration, passing
*cumulative* signals (time blocked in window waits, the wait a blocking
rank would have paid, the time charged to work, to speculation and to
its check + correct part, all since the run started) plus the
transport's clock — virtual seconds under DES, wall seconds on pipes,
the rank's own ops plus waits where the transport has no clock
(loopback, the model checker).
Policies that think in epochs keep their own marks and difference
against them; the engine never resets anything.

That cumulative-with-marks contract is what makes one policy work on
every backend: a wall-clock transport cannot "reset" the engine's
accumulators mid-run from another process, but it can always report
monotone totals.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, List, Protocol, Tuple, runtime_checkable

from repro.perfmodel.model import iteration_time


@runtime_checkable
class WindowPolicy(Protocol):
    """Per-rank forward-window controller.

    ``min_fw`` / ``max_fw`` bound every FW the policy may return (the
    ``window-policy-bound`` invariant); :meth:`spawn` hands each rank a
    private instance so marks never alias across ranks; :meth:`state`
    exposes the mutable marks for model-checker fingerprints.
    """

    min_fw: int
    max_fw: int

    def spawn(self) -> "WindowPolicy":
        """A fresh per-rank instance (policies may be stateful)."""
        ...

    def on_iteration(
        self,
        t: int,
        *,
        fw: int,
        now: float,
        wait: float,
        lag: float,
        work: float,
        overhead: float,
        verify: float,
    ) -> int:
        """Observe iteration ``t``'s completion; return the next FW.

        ``now`` is the transport's clock at the ``IterationDone``
        boundary.  The rest are cumulative since the run started, in
        the same clock: ``wait`` is the time blocked in window waits;
        ``lag`` sums, over the verified iterations, the transit of the
        message that completed each one's inputs (the wait a blocking
        rank pays); ``work`` and ``overhead`` are the time charged to
        fw-independent work (compute, message packing) and to
        speculation (speculate, check, correct); ``verify`` is the check
        and correct part, run between an arrival and the next send.
        """
        ...

    def state(self) -> Tuple[float, ...]:
        """Hashable snapshot of the policy's mutable marks."""
        ...


@dataclass
class CostWindow:
    """The cost-rule forward-window controller (per rank).

    Every ``epoch`` iterations the rank prices every window in
    ``[min_fw, max_fw]`` with the engine's pipelining law,
    :func:`~repro.perfmodel.model.iteration_time` (``C + L`` blocking,
    Eq. 6; ``max(C + O, (L + O_v) / f)`` at a window ``f``, Eq. 8 at
    ``f = 1``), from the epoch just run, per iteration in the
    transport's clock: the work ``C`` (compute, packing), speculation
    ``O_s`` and check + correct ``O_v`` (``O = O_s + O_v``), and the
    latency ``L``, the transit of the message that completed each
    iteration's inputs.  A wait at window ``fw`` is the law's latency
    bound binding, so the law run backwards gives ``L >= fw·(C + O +
    wait) - O_v`` (``wait`` at ``fw = 0``), which is all a transport
    without transit times (loopback, the model checker) can tell.

    The rank steps one window toward the cheapest when

    * the epoch saw a wait or a transit (one with neither is no
      evidence about ``L``);
    * the predicted gain exceeds the standard error of the epoch's
      iteration times averaged per ``max(fw, 1)`` of them (a window
      spreads one wait over that many: the pipeline's shape, not
      noise), so noise alone never moves it;
    * priced on the epoch's last iteration alone, the cheapest window
      still wins, so a delay that has already passed is not chased.

    ``O`` is observable only while speculating: at ``fw = 0`` the last
    measured ``O_s / C`` and ``O_v / C`` stand in (0 before any, so a
    blocking rank that sees latency tries a window once and learns its
    price).  There are no thresholds to tune: ``epoch`` is how often it
    decides and ``min_fw`` / ``max_fw`` bound where it may go.
    """

    epoch: int = 4
    min_fw: int = 0
    max_fw: int = 4

    #: The cumulative signals at the previous iteration, and this
    #: epoch's per-iteration differences.
    _prev: Tuple[float, ...] = field(
        default=(0.0,) * 6, init=False, repr=False)
    _steps: List[Tuple[float, ...]] = field(
        default_factory=list, init=False, repr=False)
    #: ``O_s / C`` and ``O_v / C``, as last measured at fw >= 1.
    _share: Tuple[float, float] = field(default=(0.0, 0.0), init=False, repr=False)

    def __post_init__(self) -> None:
        if self.epoch < 1:
            raise ValueError("epoch must be >= 1")
        if not 0 <= self.min_fw <= self.max_fw:
            raise ValueError("need 0 <= min_fw <= max_fw")

    def spawn(self) -> "CostWindow":
        return replace(self)  # fresh marks, same parameters

    def on_iteration(
        self,
        t: int,
        *,
        fw: int,
        now: float,
        wait: float,
        lag: float,
        work: float,
        overhead: float,
        verify: float,
    ) -> int:
        signals = (now, wait, lag, work, overhead, verify)
        self._steps.append(
            tuple(cur - prev for cur, prev in zip(signals, self._prev)))
        self._prev = signals
        if (t + 1) % self.epoch != 0:
            return fw
        steps, self._steps = self._steps, []
        times, d_wait, d_lag, d_work, d_over, d_verify = zip(*steps)
        n, work = len(steps), sum(d_work)
        if fw > 0 and work > 0:
            self._share = ((sum(d_over) - sum(d_verify)) / work, sum(d_verify) / work)
        if not any(d_wait) and not any(d_lag):
            return fw
        mean_cost = self._pricer(fw, sum(d_wait) / n, sum(d_lag) / n, work / n)
        best = min(range(self.min_fw, self.max_fw + 1),
                   key=lambda f: (mean_cost(f), abs(f - fw)))
        last_cost = self._pricer(fw, d_wait[-1], d_lag[-1], d_work[-1])
        period = max(fw, 1)
        spans = [sum(times[i:i + period]) / period for i in range(0, n - period + 1, period)]
        noise = statistics.stdev(spans) / math.sqrt(len(spans)) if len(spans) > 1 else 0.0
        if (mean_cost(fw) - mean_cost(best) > noise
                and last_cost(best) < last_cost(fw)):
            return fw + (1 if best > fw else -1)
        return fw

    def _pricer(self, fw: int, wait: float, latency: float, c: float) -> Callable[[int], float]:
        """Per-iteration cost of window ``f``, from one iteration's
        wait, transit and work measured at window ``fw``."""
        o_s, o_v = (c * share for share in self._share)
        if wait > 0:  # the law run backwards
            latency = max(latency, wait if fw == 0 else fw * (c + o_s + o_v + wait) - o_v)
        return lambda f: iteration_time(f, c, latency, o_s, o_v)

    def state(self) -> Tuple[float, ...]:
        return (*self._share, *self._prev, *chain(*self._steps))


@dataclass
class DegradedWindow:
    """Loss-aware wrapper: collapse FW toward 0 under persistent loss.

    Wraps any :class:`WindowPolicy`.  While the engine keeps reporting
    new retransmits (via the duck-typed :meth:`observe_losses` hook it
    calls before each ``on_iteration``), speculation is a liability:
    speculated inputs stand on messages the network is actively
    losing, so every loss-window iteration *halves* the window toward
    0 instead of consulting the inner policy.  After ``recover_after``
    consecutive clean iterations the wrapper re-arms the inner policy,
    which re-widens at its own pace.

    The engine reads the public ``degraded`` flag after each decision
    and emits a :class:`~repro.engine.events.Degraded` effect on every
    flip, so traces show exactly when resilience mode engaged.
    """

    inner: "WindowPolicy"
    recover_after: int = 3

    #: True while loss-collapse is steering instead of ``inner``.
    degraded: bool = field(default=False, init=False)
    _seen_retransmits: int = field(default=0, init=False, repr=False)
    _fresh_losses: bool = field(default=False, init=False, repr=False)
    _clean_streak: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.recover_after < 1:
            raise ValueError("recover_after must be >= 1")

    @property
    def min_fw(self) -> int:
        return 0  # degradation may park the window at fully blocking

    @property
    def max_fw(self) -> int:
        return self.inner.max_fw

    def spawn(self) -> "DegradedWindow":
        return DegradedWindow(
            inner=self.inner.spawn(), recover_after=self.recover_after
        )

    def observe_losses(self, total_retransmits: int) -> None:
        """Engine hook: cumulative retransmit count before a decision."""
        self._fresh_losses = total_retransmits > self._seen_retransmits
        self._seen_retransmits = total_retransmits

    def on_iteration(self, t: int, *, fw: int, **signals: float) -> int:
        if self._fresh_losses:
            self._fresh_losses = False
            self._clean_streak = 0
            self.degraded = True
            return fw // 2
        if self.degraded:
            self._clean_streak += 1
            if self._clean_streak < self.recover_after:
                return fw  # hold collapsed until the loss truly passed
            self.degraded = False
        # Clean: delegate, clamped into the inner policy's bounds in
        # case degradation parked fw below inner.min_fw.
        new_fw = self.inner.on_iteration(
            t, fw=max(fw, self.inner.min_fw), **signals
        )
        return max(self.inner.min_fw, min(new_fw, self.inner.max_fw))

    def state(self) -> Tuple[float, ...]:
        return (
            float(self.degraded),
            float(self._seen_retransmits),
            float(self._fresh_losses),
            float(self._clean_streak),
        ) + tuple(self.inner.state())
