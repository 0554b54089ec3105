"""Forward-window policies: who decides each rank's FW, and when.

The engine consults its policy once per completed iteration, passing
*cumulative* signals (total window-wait, total checks, total rejects
since the run started) plus the transport's clock — virtual seconds
under DES, wall seconds on pipes, the scheduler step count on
loopback.  Policies that think in epochs keep their own marks and
difference against them; the engine never resets anything.

That cumulative-with-marks contract is what makes one policy work on
every backend: a wall-clock transport cannot "reset" the engine's
accumulators mid-run from another process, but it can always report
monotone totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Protocol, Tuple, runtime_checkable


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
        epoch_wait: float,
        checks: int,
        rejects: int,
        now: float,
    ) -> int:
        """Observe iteration ``t``'s completion; return the next FW.

        All counters are cumulative since the run started; ``now`` is
        the transport's clock at the ``IterationDone`` boundary.
        """
        ...

    def state(self) -> Tuple[float, ...]:
        """Hashable snapshot of the policy's mutable marks."""
        ...


@dataclass(frozen=True)
class StaticWindow:
    """The identity policy: the window never moves.

    A run with ``StaticWindow(fw)`` is effect-for-effect identical to
    a plain fixed-FW run — the policy returns the current FW verbatim,
    so the engine never emits ``WindowChanged``.
    """

    fw: int

    def __post_init__(self) -> None:
        if self.fw < 0:
            raise ValueError("fw must be >= 0")

    @property
    def min_fw(self) -> int:
        return self.fw

    @property
    def max_fw(self) -> int:
        return self.fw

    def spawn(self) -> "StaticWindow":
        return self  # immutable: safe to share across ranks

    def on_iteration(
        self,
        t: int,
        *,
        fw: int,
        epoch_wait: float,
        checks: int,
        rejects: int,
        now: float,
    ) -> int:
        return self.fw

    def state(self) -> Tuple[float, ...]:
        return ()


@dataclass
class AimdWindow:
    """The AIMD forward-window controller (per rank).

    Every ``epoch`` iterations, decide from two observable signals:

    * **waiting time** — seconds blocked in window waits this epoch.
      Waiting means the window is too small to absorb current delays
      → widen by one (additive increase), provided rejections stayed
      below ``reject_low``.
    * **rejection rate** — fraction of this epoch's checks rejected.
      Deep windows speculate across larger gaps; above
      ``reject_high`` the gap² error growth makes speculation a net
      loss → shrink by one.

    Marks are private per-instance state; the engine spawns one
    policy per rank so ranks adapt independently.

    Attributes
    ----------
    epoch:
        Iterations between adaptation decisions.
    min_fw / max_fw:
        Window bounds (``min_fw = 0`` allows falling back to the
        blocking algorithm when speculation never pays).
    wait_fraction:
        Widen when epoch wait time exceeds this fraction of the epoch's
        wall span.
    reject_low / reject_high:
        Rejection-rate thresholds: widening requires the epoch rate
        below ``reject_low``; above ``reject_high`` forces a shrink.
    """

    epoch: int = 4
    min_fw: int = 0
    max_fw: int = 4
    wait_fraction: float = 0.05
    reject_low: float = 0.10
    reject_high: float = 0.35

    # Epoch marks: the cumulative signals as of the last decision.
    _mark_time: float = field(default=0.0, init=False, repr=False)
    _mark_wait: float = field(default=0.0, init=False, repr=False)
    _mark_checks: int = field(default=0, init=False, repr=False)
    _mark_rejects: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.epoch < 1:
            raise ValueError("epoch must be >= 1")
        if not 0 <= self.min_fw <= self.max_fw:
            raise ValueError("need 0 <= min_fw <= max_fw")
        if not 0 <= self.wait_fraction:
            raise ValueError("wait_fraction must be >= 0")
        if not 0 <= self.reject_low <= self.reject_high <= 1:
            raise ValueError("need 0 <= reject_low <= reject_high <= 1")

    def spawn(self) -> "AimdWindow":
        return replace(self)  # fresh marks, same parameters

    def on_iteration(
        self,
        t: int,
        *,
        fw: int,
        epoch_wait: float,
        checks: int,
        rejects: int,
        now: float,
    ) -> int:
        if (t + 1) % self.epoch != 0:
            return fw

        span = now - self._mark_time
        d_checks = checks - self._mark_checks
        d_rejects = rejects - self._mark_rejects
        wait = epoch_wait - self._mark_wait
        reject_rate = d_rejects / d_checks if d_checks else 0.0

        new_fw = fw
        if reject_rate > self.reject_high and fw > self.min_fw:
            new_fw = fw - 1
        elif (
            span > 0
            and wait > self.wait_fraction * span
            and reject_rate < self.reject_low
            and fw < self.max_fw
        ):
            new_fw = fw + 1

        self._mark_time = now
        self._mark_wait = epoch_wait
        self._mark_checks = checks
        self._mark_rejects = rejects
        return new_fw

    def state(self) -> Tuple[float, ...]:
        return (
            self._mark_time,
            self._mark_wait,
            float(self._mark_checks),
            float(self._mark_rejects),
        )


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

    def on_iteration(
        self,
        t: int,
        *,
        fw: int,
        epoch_wait: float,
        checks: int,
        rejects: int,
        now: float,
    ) -> int:
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
            t, fw=max(fw, self.inner.min_fw), epoch_wait=epoch_wait,
            checks=checks, rejects=rejects, now=now,
        )
        return max(self.inner.min_fw, min(new_fw, self.inner.max_fw))

    def state(self) -> Tuple[float, ...]:
        return (
            float(self.degraded),
            float(self._seen_retransmits),
            float(self._fresh_losses),
            float(self._clean_streak),
        ) + tuple(self.inner.state())
