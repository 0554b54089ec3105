"""The transport seam: how a sans-I/O engine meets a medium.

A *transport* interprets the engine's effects against one messaging
medium.  One of two loops steps a run's engines:

* :class:`~repro.engine.loopback.LoopbackRunner` — in-process queues;
  under its deterministic round-robin scheduler for tests and toys,
  and as :class:`~repro.engine.loopback.CalendarRunner` on the
  discrete event simulator's calendar (``repro.vm`` clusters over
  ``repro.netsim`` networks), where costs become virtual time.
* :func:`drive` over a :class:`Transport`, the synchronous loop of
  the wall-clock medium :class:`~repro.engine.pipes.PipeTransport`:
  real ``multiprocessing`` pipes with injected latency, where costs
  become wall time.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, runtime_checkable

from repro.engine.events import (
    Arrival, Charge, IterationDone, Recv, Retransmit, Send, TryRecv,
)
from repro.engine.observer import RankObserver


class TransportError(RuntimeError):
    """A transport observed a protocol-impossible condition (sequence
    gap, wire corruption, unroutable message)."""


@runtime_checkable
class Transport(Protocol):
    """What a synchronous transport must implement for :func:`drive`."""

    #: The rank's observer seat, which :func:`drive` runs the engine with.
    observer: RankObserver

    def send(self, effect: Send) -> None:
        """Hand one protocol message to the medium (asynchronous)."""

    def recv(self, effect: Recv) -> Optional[Arrival]:
        """Block until a matching protocol message is available (or,
        when the effect carries a ``timeout``, until it expires — then
        respond None so the engine's retransmit timer can escalate)."""

    def try_recv(self, effect: TryRecv) -> Optional[Arrival]:
        """Non-blocking receive; None when nothing is deliverable."""

    def charge(self, effect: Charge) -> Optional[float]:
        """Account compute cost to a phase (wall transports attribute
        the real time since the previous effect boundary); the clock
        time charged, or None without a clock."""

    @property
    def wall_seconds(self) -> float:
        """The medium's clock, which :func:`drive` answers to
        ``IterationDone`` — the timebase the seated window policy
        adapts on."""


def drive(engine: Any, transport: Transport) -> Any:
    """Run ``engine`` to completion against a synchronous transport.

    Returns the engine's final block.  This is the whole sans-I/O
    pattern in a dozen lines: the engine yields effects, the transport
    performs them, arrivals (and clock readings) flow back in; a
    ``Retransmit`` is the fault layer's to service and is answered None.
    """
    gen = engine.run(transport.observer)
    response: Optional[Arrival | float] = None
    while True:
        try:
            effect = gen.send(response)
        except StopIteration as stop:
            return stop.value
        response = None
        kind = type(effect)
        if kind is Send:
            transport.send(effect)
        elif kind is Recv:
            response = transport.recv(effect)
        elif kind is TryRecv:
            response = transport.try_recv(effect)
        elif kind is Charge:
            response = transport.charge(effect)
        elif kind is IterationDone:
            response = transport.wall_seconds
        elif kind is not Retransmit:
            raise TypeError(f"{effect!r} is not an effect")
