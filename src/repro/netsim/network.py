"""Transport abstraction used by the virtual machine.

A :class:`Network` turns ``transmit(src, dst, nbytes)`` into an event
that fires when the last byte arrives at the destination.  Two
implementations:

* :class:`DelayNetwork` — pure latency, unlimited parallelism (every
  message travels independently).  Matches the performance model's
  assumption of a constant, contention-free t_comm.
* :class:`BusNetwork` — latency plus a :class:`~repro.netsim.bus.SharedBus`
  that serializes transfers, so all-to-all exchanges contend exactly as
  on the paper's Ethernet.

Every network is FIFO per ``(src, dst)`` channel, as the TCP/PVM
streams it stands for are: whatever the latency model draws, a message
never clears the stage that model delays before its predecessor on the
same channel does (ties keep send order).  Receivers rely on it — the
engine's rings raise on an out-of-order arrival.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from math import inf
from typing import Generator, Optional

from repro.des import Environment, Event, Resource
from repro.netsim.bus import SharedBus
from repro.netsim.latency import ConstantLatency, LatencyModel


class Network(ABC):
    """Abstract message transport over a simulated interconnect."""

    def __init__(self, env: Environment, latency: Optional[LatencyModel] = None) -> None:
        self.env = env
        self.latency = latency if latency is not None else ConstantLatency(0.0)
        #: Count of messages ever transmitted.
        self.messages_sent = 0
        #: Total payload bytes ever transmitted.
        self.bytes_sent = 0
        #: Per channel, when its latest message clears the latency stage.
        self._last_ready: dict[tuple[int, int], float] = {}

    @abstractmethod
    def transmit(self, src: int, dst: int, nbytes: int) -> Event:
        """Send ``nbytes`` from ``src`` to ``dst``; event fires on delivery."""

    def _account(self, nbytes: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += nbytes

    def _endpoint_stage(self, src: int, dst: int) -> Optional[Event]:
        """Draw the endpoint latency of a message sent now; FIFO-clamp it.

        Returns the event firing when the stage ends — at the absolute
        time ``max(now + delay, predecessor's end)``, so the clamp is
        exact — or None when it ends on the spot: no delay, and no
        predecessor that may still be due at this instant.
        """
        now, key = self.env.now, (src, dst)
        delay = self.latency.delay(src, dst, now)
        last = self._last_ready.get(key, -inf)
        if delay > 0 or last >= now:
            self._last_ready[key] = ready = max(now + delay, last)
            return Event(self.env).succeed(at=ready)
        return None


class DelayNetwork(Network):
    """Contention-free transport: delivery after ``latency.delay(...)``.

    Messages on the same path never queue behind each other; ordering
    between two messages on one path is still preserved (FIFO channel
    semantics) by never letting a later message overtake an earlier
    one — delivery time is clamped to be monotone per (src, dst) pair,
    as TCP/PVM streams guarantee.
    """

    def transmit(self, src: int, dst: int, nbytes: int) -> Event:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        self._account(nbytes)
        delay = self.latency.delay(src, dst, self.env.now)
        arrival = self.env.now + delay
        key = (src, dst)
        # FIFO per channel: a message never arrives before its
        # predecessor on the same channel.
        arrival = max(arrival, self._last_ready.get(key, 0.0))
        self._last_ready[key] = arrival
        return self.env.timeout(arrival - self.env.now, value=(src, dst, nbytes))


class SwitchedNetwork(Network):
    """Full-duplex switched transport: contention only per endpoint.

    Models a (then-futuristic, now standard) switched LAN: each
    processor has a dedicated full-duplex link to the switch, so
    transfers contend only for the sender's egress and the receiver's
    ingress — never for a shared medium.  Contrast with
    :class:`BusNetwork` to quantify how much of the paper's large-p
    degradation is pure Ethernet contention.
    """

    def __init__(
        self,
        env: Environment,
        nprocs: int,
        bandwidth: float,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        super().__init__(env, latency)
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.nprocs = nprocs
        self.bandwidth = bandwidth
        self._egress = [Resource(env, capacity=1) for _ in range(nprocs)]
        self._ingress = [Resource(env, capacity=1) for _ in range(nprocs)]

    def transmit(self, src: int, dst: int, nbytes: int) -> Event:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if not (0 <= src < self.nprocs and 0 <= dst < self.nprocs):
            raise ValueError("invalid endpoint rank")
        self._account(nbytes)
        return self.env.process(
            self._deliver(src, dst, nbytes), name=f"sw-xmit-{src}-{dst}"
        )

    def _deliver(self, src: int, dst: int, nbytes: int) -> Generator:
        ready = self._endpoint_stage(src, dst)
        if ready is not None:
            yield ready
        wire = nbytes / self.bandwidth
        # Hold sender egress, then receiver ingress (store-and-forward).
        egress = self._egress[src].request()
        yield egress
        try:
            yield self.env.timeout(wire)
        finally:
            self._egress[src].release(egress)
        ingress = self._ingress[dst].request()
        yield ingress
        try:
            yield self.env.timeout(wire)
        finally:
            self._ingress[dst].release(ingress)
        return (src, dst, nbytes)


class BusNetwork(Network):
    """Shared-bus transport: endpoint latency + serialized wire time.

    A message first pays an endpoint ``latency`` (protocol-stack
    processing, which *can* overlap across processors), then occupies
    the shared bus for its wire time (which cannot).  That is two
    calendar events: the end of the endpoint stage, whose callback
    claims the bus, and the bus completion — the event returned here.
    """

    def __init__(
        self,
        env: Environment,
        bus: SharedBus,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        super().__init__(env, latency)
        self.bus = bus

    def transmit(self, src: int, dst: int, nbytes: int) -> Event:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        self._account(nbytes)
        done = Event(self.env)
        value = (src, dst, nbytes)
        ready = self._endpoint_stage(src, dst)
        if ready is None:
            self.bus.transfer(nbytes, done, value)
        else:
            ready.callbacks.append(lambda _: self.bus.transfer(nbytes, done, value))
        return done
