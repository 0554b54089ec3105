"""Transport abstraction used by the virtual machine.

A :class:`Network` takes ``transmit(src, dst, nbytes, deliver)`` and
puts ``deliver`` on the calendar for the instant the last byte arrives
at the destination.  Three implementations:

* :class:`DelayNetwork` — pure latency, unlimited parallelism (every
  message travels independently).  Matches the performance model's
  assumption of a constant, contention-free t_comm.
* :class:`BusNetwork` — latency plus a :class:`~repro.netsim.bus.SharedBus`
  that serializes transfers, so all-to-all exchanges contend exactly as
  on the paper's Ethernet.
* :class:`SwitchedNetwork` — latency plus a FIFO per sender egress and
  per receiver ingress, as on a switched LAN.

Every network is FIFO per ``(src, dst)`` channel, as the TCP/PVM
streams it stands for are: whatever the latency model draws, a message
never clears the stage that model delays before its predecessor on the
same channel does (ties keep send order).  Receivers rely on it — the
engine's rings raise on an out-of-order arrival.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from functools import partial
from math import inf
from typing import Any, Callable, Optional

from repro.des import Environment
from repro.netsim.bus import SharedBus
from repro.netsim.latency import ConstantLatency, LatencyModel

#: What a network calls on delivery: a calendar callback (its argument
#: is None).
Deliver = Callable[[Any], None]


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
    def transmit(self, src: int, dst: int, nbytes: int, deliver: Deliver) -> None:
        """Send ``nbytes`` from ``src`` to ``dst``; the calendar calls
        ``deliver(None)`` on delivery."""

    def _account(self, nbytes: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += nbytes

    def _endpoint_stage(self, src: int, dst: int) -> Optional[float]:
        """Draw the endpoint latency of a message sent now; FIFO-clamp it.

        Returns the absolute time the stage ends, ``max(now + delay,
        predecessor's end)``, so the clamp is exact; or None when it
        ends on the spot: no delay, and no predecessor that may still be
        due at this instant.
        """
        now, key = self.env.now, (src, dst)
        delay = self.latency.delay(src, dst, now)
        last = self._last_ready.get(key, -inf)
        if delay > 0 or last >= now:
            self._last_ready[key] = ready = max(now + delay, last)
            return ready
        return None


class DelayNetwork(Network):
    """Contention-free transport: delivery when the endpoint stage ends.

    Messages on the same path never queue behind each other; ordering
    between two messages on one path is still preserved (FIFO channel
    semantics), since the endpoint stage never lets a later message
    overtake an earlier one.
    """

    def transmit(self, src: int, dst: int, nbytes: int, deliver: Deliver) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        self._account(nbytes)
        ready = self._endpoint_stage(src, dst)
        self.env.schedule(self.env.now if ready is None else ready, deliver)


class SwitchedNetwork(Network):
    """Full-duplex switched transport: contention only per endpoint.

    Models a (then-futuristic, now standard) switched LAN: each
    processor has a dedicated full-duplex link to the switch, so
    transfers contend only for the sender's egress and the receiver's
    ingress — never for a shared medium.  Contrast with
    :class:`BusNetwork` to quantify how much of the paper's large-p
    degradation is pure Ethernet contention.

    A message is store-and-forward: after its endpoint stage it holds
    the sender's egress, then the receiver's ingress, for ``nbytes /
    bandwidth`` each.  A port is a FIFO whose head holds the link; each
    step is one calendar entry: the message's start (priority 0), the
    end of its endpoint stage, each grant and each hold, and its
    delivery.
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
        self._egress: list[deque] = [deque() for _ in range(nprocs)]
        self._ingress: list[deque] = [deque() for _ in range(nprocs)]

    def transmit(self, src: int, dst: int, nbytes: int, deliver: Deliver) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if not (0 <= src < self.nprocs and 0 <= dst < self.nprocs):
            raise ValueError("invalid endpoint rank")
        self._account(nbytes)
        # (src, dst, seconds on each link, deliver)
        message = (src, dst, nbytes / self.bandwidth, deliver)
        self.env.schedule(self.env.now, self._start, message, 0)

    def _start(self, message) -> None:
        ready = self._endpoint_stage(message[0], message[1])
        if ready is None:
            self._to_egress(message)
        else:
            self.env.schedule(ready, self._to_egress, message)

    def _to_egress(self, message) -> None:
        self._request(self._egress[message[0]], self._hold_egress, message)

    def _hold_egress(self, message) -> None:
        self.env.schedule(self.env.now + message[2], self._leave_egress, message)

    def _leave_egress(self, message) -> None:
        self._release(self._egress[message[0]], self._hold_egress)
        self._request(self._ingress[message[1]], self._hold_ingress, message)

    def _hold_ingress(self, message) -> None:
        self.env.schedule(self.env.now + message[2], self._leave_ingress, message)

    def _leave_ingress(self, message) -> None:
        self._release(self._ingress[message[1]], self._hold_ingress)
        self.env.schedule(self.env.now, message[3])

    def _request(self, port, granted, message) -> None:
        """Queue ``message`` on ``port``; grant it now if the link is free."""
        port.append(message)
        if len(port) == 1:
            self.env.schedule(self.env.now, granted, message)

    def _release(self, port, granted) -> None:
        """The head leaves ``port``; grant the link to the next in line."""
        port.popleft()
        if port:
            self.env.schedule(self.env.now, granted, port[0])


class BusNetwork(Network):
    """Shared-bus transport: endpoint latency + serialized wire time.

    A message first pays an endpoint ``latency`` (protocol-stack
    processing, which *can* overlap across processors), then occupies
    the shared bus for its wire time (which cannot).  That is two
    calendar entries: the end of the endpoint stage, which claims the
    bus, and the bus completion, which delivers.
    """

    def __init__(
        self,
        env: Environment,
        bus: SharedBus,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        super().__init__(env, latency)
        self.bus = bus

    def transmit(self, src: int, dst: int, nbytes: int, deliver: Deliver) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        self._account(nbytes)
        ready = self._endpoint_stage(src, dst)
        if ready is None:
            self.bus.transfer(nbytes, deliver)
        else:
            self.env.schedule(ready, partial(self.bus.transfer, nbytes), deliver)
