"""Shared-medium bus with contention.

Models the paper's shared Ethernet: only one frame is on the wire at a
time, so all-to-all exchanges serialize and the effective per-processor
communication time grows with p.  The paper attributes the performance
roll-off beyond ~8–10 processors to exactly this contention ("network
contention (not accounted for in the model) causes additional
communication delay").

What pins virtual time here (DESIGN.md §5.9).  A transfer requested at
``now`` starts at ``start = max(now, free_at)`` and completes at
``start + (frame_overhead + nbytes / bandwidth)``, scheduled as one
event at that *absolute* time — the additions a FIFO queue of holders
would make, in the same order, so a transfer granted at a release
instant starts at exactly the float its predecessor ended on.
Completions are scheduled at priority 2: a frame leaving the wire at T
reaches its mailbox after every ordinary (priority 0/1) event of T, so
a process that wakes at exactly T does not see it yet.  That is the
order the hop-by-hop model this replaced produced, and the golden
traces pin it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Generator, Optional

import numpy as np

from repro.des import Environment, Event

#: Calendar priority of a bus completion: after the instant's 0s and 1s.
COMPLETION_PRIORITY = 2


class SharedBus:
    """A single shared transmission medium (Ethernet-like).

    Transfers take the bus in the order :meth:`transfer` is called and
    hold it for ``frame_overhead + nbytes / bandwidth`` seconds each.
    The bus keeps the time the medium next falls idle, so a transfer is
    one calendar event at ``max(now, free_at) + occupancy(nbytes)``
    (see the module docstring for why that time and priority).

    Parameters
    ----------
    env:
        Simulation environment.
    bandwidth:
        Bytes per virtual second on the wire.
    frame_overhead:
        Fixed per-transfer bus occupancy (preamble, inter-frame gap,
        MAC arbitration), in seconds.
    """

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        frame_overhead: float = 0.0,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if frame_overhead < 0:
            raise ValueError("frame_overhead must be >= 0")
        self.env = env
        self.bandwidth = bandwidth
        self.frame_overhead = frame_overhead
        #: Virtual time the medium next falls idle.
        self._free_at = 0.0
        #: (start, nbytes) of each accepted, unfinished transfer, FIFO.
        self._in_flight: deque[tuple[float, int]] = deque()
        #: Total bytes ever accepted for transfer.
        self.bytes_transferred = 0
        #: Total seconds the medium has been held.
        self.busy_time = 0.0

    def occupancy(self, nbytes: int) -> float:
        """Seconds the medium is held for an ``nbytes`` transfer."""
        return self.frame_overhead + nbytes / self.bandwidth

    def transfer(
        self, nbytes: int, done: Optional[Event] = None, value: Any = None
    ) -> Event:
        """Start a transfer; returns an event firing at completion.

        ``done`` is the (pending) event to fire, a fresh one by
        default; it fires with ``value``.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if done is None:
            done = Event(self.env)
        start = max(self.env.now, self._free_at)
        self._free_at = end = start + self.occupancy(nbytes)
        self._in_flight.append((start, nbytes))
        done.callbacks.append(self._complete)
        return done.succeed(value, priority=COMPLETION_PRIORITY, at=end)

    def _complete(self, event: Event) -> None:
        # Completions fire in transfer() order, so the head is ours.
        start, nbytes = self._in_flight.popleft()
        self.busy_time += self.env.now - start
        self.bytes_transferred += nbytes

    @property
    def queued(self) -> int:
        """Transfers currently waiting for the medium."""
        return max(len(self._in_flight) - 1, 0)

    def __repr__(self) -> str:
        return (
            f"<SharedBus bw={self.bandwidth:.3g} B/s "
            f"overhead={self.frame_overhead:.3g}s queued={self.queued}>"
        )


@dataclass
class BackgroundTraffic:
    """Poisson background load injected onto a :class:`SharedBus`.

    Emulates other hosts sharing the department Ethernet: frames of
    ``frame_bytes`` arrive with exponential inter-arrival times of mean
    ``1 / rate`` and occupy the bus like any other transfer.

    Parameters
    ----------
    rate:
        Mean frames per virtual second.
    frame_bytes:
        Size of each background frame.
    seed:
        RNG seed (deterministic inter-arrival sequence).
    """

    rate: float
    frame_bytes: int = 1500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("rate must be >= 0")
        if self.frame_bytes < 0:
            raise ValueError("frame_bytes must be >= 0")

    def attach(self, bus: SharedBus, until: Optional[float] = None) -> None:
        """Start generating traffic on ``bus`` (until time ``until``)."""
        if self.rate == 0:
            return
        bus.env.process(self._generate(bus, until), name="background-traffic")

    def _generate(self, bus: SharedBus, until: Optional[float]) -> Generator:
        rng = np.random.default_rng(self.seed)
        env = bus.env
        while until is None or env.now < until:
            gap = float(rng.exponential(1.0 / self.rate))
            yield env.timeout(gap)
            if until is not None and env.now >= until:
                return
            # Fire-and-forget: the frame occupies the bus; nobody waits
            # on its completion event.
            bus.transfer(self.frame_bytes)


@dataclass
class BurstyTraffic:
    """Markov-modulated background load: quiet baseline + saturating bursts.

    Models the paper's environment of "messages may occasionally
    experience excessive delays due to network traffic": most of the
    time the Ethernet carries light traffic, but during bursts (another
    user's bulk transfer) it nearly saturates for several seconds —
    exactly the transient the forward window is designed to absorb
    (Fig. 4).

    Parameters
    ----------
    base_rate / burst_rate:
        Frames per second outside / inside a burst.
    mean_off / mean_on:
        Mean duration (exponential) of quiet and burst periods.
    frame_bytes:
        Size of each background frame.
    seed:
        RNG seed.
    """

    base_rate: float = 10.0
    burst_rate: float = 100.0
    mean_off: float = 30.0
    mean_on: float = 8.0
    frame_bytes: int = 1500
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.base_rate, self.burst_rate) < 0:
            raise ValueError("rates must be >= 0")
        if min(self.mean_off, self.mean_on) <= 0:
            raise ValueError("mean_off and mean_on must be positive")
        if self.frame_bytes < 0:
            raise ValueError("frame_bytes must be >= 0")

    def attach(self, bus: SharedBus, until: Optional[float] = None) -> None:
        """Start the modulated generator on ``bus``."""
        if self.base_rate == 0 and self.burst_rate == 0:
            return
        bus.env.process(self._generate(bus, until), name="bursty-traffic")

    def _generate(self, bus: SharedBus, until: Optional[float]) -> Generator:
        rng = np.random.default_rng(self.seed)
        env = bus.env
        in_burst = False
        phase_end = env.now + float(rng.exponential(self.mean_off))
        while until is None or env.now < until:
            if env.now >= phase_end:
                in_burst = not in_burst
                mean = self.mean_on if in_burst else self.mean_off
                phase_end = env.now + float(rng.exponential(mean))
            rate = self.burst_rate if in_burst else self.base_rate
            if rate <= 0:
                yield env.timeout(min(1.0, max(phase_end - env.now, 1e-9)))
                continue
            gap = float(rng.exponential(1.0 / rate))
            yield env.timeout(gap)
            if until is not None and env.now >= until:
                return
            bus.transfer(self.frame_bytes)
