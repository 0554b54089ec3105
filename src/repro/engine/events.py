"""The sans-I/O engine's effect alphabet.

The :class:`~repro.engine.core.SpecEngine` never performs I/O, never
reads a clock and never charges time.  Instead its ``run(observer)``
generator *yields* small immutable effect objects and receives the
outcome back via ``generator.send(...)``.  A transport (DES, loopback,
pipes) interprets each effect against its medium and resumes the
engine.  A run yields hundreds of thousands of them, so the ones with
fields are frozen dataclasses filled by
:func:`~repro.trace.records.record` and the engine builds the one
without (``TryRecv``) once.

Six effects, each of which a transport or the fault layer acts on:

======================  ============================================
:class:`Send`           hand one protocol message to the transport
:class:`Recv`           block until a protocol message is available
:class:`TryRecv`        non-blocking arrival check
:class:`Charge`         account ``ops`` of compute to a phase
:class:`IterationDone`  answered with the transport's clock; the
                        fault layer ends a rank planned to crash there
:class:`Retransmit`     serviced by the fault layer's loss buffer
======================  ============================================

What the engine only reports -- speculate, compute, verify, correct,
the cascade markers, window changes -- is not an effect: the engine
calls the :class:`~repro.engine.observer.RankObserver` its runner
passed to ``run`` (the runtime
:class:`~repro.engine.sanitizer.ProtocolSanitizer` and the
:class:`~repro.trace.events.EventLog` consumed by specflow's trace
replay sit behind it), so every backend's observers hook one code
path without a round trip through the runner.

Message identity is ``(family, iteration)`` plus a per-destination
``seq`` stamped by the engine.  Sequenced sends are what fixes the
SPF111 race: a transport that honours ``seq`` (the pipe transport
does, the DES network is per-pair FIFO by construction) can never
deliver two same-family messages to a wildcard receive in an order
the protocol did not produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.trace.records import record

#: Message-tag family used by the speculative protocol's variable
#: exchange (the single authoritative definition; drivers re-export it).
VARS = "vars"


@record
@dataclass(frozen=True)
class Send:
    """Hand one protocol message to the transport (asynchronous)."""

    dst: int
    payload: Any
    iteration: int
    nbytes: int
    #: Per-destination monotonic sequence number (0, 1, 2, ... within
    #: one src -> dst conversation).  Transports that can reorder
    #: deliveries use it to restore protocol order at the receiver.
    seq: int
    family: str = VARS


@record
@dataclass(frozen=True)
class Recv:
    """Block until a protocol message is available; respond with
    an :class:`Arrival`.

    ``match`` of None is the wildcard receive (any family/iteration);
    a ``(family, iteration)`` pair restricts matching (used by the
    receive-driven baseline, which consumes exactly iteration ``t``).

    ``timeout`` (transport clock units) bounds the park: a transport
    that supports timeouts responds with ``None`` once it expires with
    nothing delivered.  The engine only sets it while a sequence gap
    is outstanding, so fault-free runs never see a ``None`` response
    and transports without timeout support stay correct.
    """

    phase: str
    iteration: int
    match: Optional[Tuple[str, int]] = None
    timeout: Optional[float] = None


@dataclass(frozen=True)
class TryRecv:
    """Non-blocking receive; respond with an :class:`Arrival` or None."""


@record
@dataclass(frozen=True)
class Charge:
    """Account ``ops`` operations of compute work to ``phase``.

    The DES transport converts ops to virtual seconds at the
    processor's capacity; the pipe transport attributes the *real*
    wall time since the previous effect boundary (the numerics just
    executed inside the engine) to the phase.  Either responds with
    the time charged, which the engine sums for its window policy (a
    transport without a clock responds None and the ops stand in).

    ``factor`` is the straggler stretch the fault seam folded into
    ``ops``; the pipe transport, which ignores ``ops``, sleeps
    ``factor - 1`` times the phase's real time instead.
    """

    ops: float
    phase: str
    iteration: int
    factor: float = 1.0


@record
@dataclass(frozen=True)
class Arrival:
    """Response to :class:`Recv` / :class:`TryRecv`.

    ``waited`` is how long the receive blocked (virtual seconds under
    DES, wall seconds on pipes); the engine accumulates it into the
    window policy's wait signal.

    ``seq`` echoes the per-(src, dst) ``Send.seq`` the message carried
    on the wire, when the transport knows it (-1 otherwise).  Sequenced
    arrivals arm the engine's resilience layer: duplicates are
    suppressed, and out-of-order arrivals are parked until the gap is
    retransmitted.  All fault-free transports deliver in seq order, so
    the bookkeeping is inert outside fault injection.

    ``latency`` is the message's transit time, from its send until it
    became receivable (transport clock; 0.0 on transports without a
    clock): the wait a blocking rank pays and a forward window hides.
    """

    src: int
    iteration: int
    payload: Any
    waited: float = 0.0
    seq: int = -1
    latency: float = 0.0


@record
@dataclass(frozen=True)
class IterationDone:
    """Iteration ``iteration`` completed.

    The transport may respond with its clock reading (virtual seconds
    under DES, wall seconds on pipes); the engine feeds it to the
    seated :class:`~repro.policy.WindowPolicy`.  A ``None`` response
    (loopback, the model checker) makes the engine fall back to its
    charged ops plus its waits as the clock.  The fault layer raises a
    planned crash here.
    """

    iteration: int


@record
@dataclass(frozen=True)
class Retransmit:
    """The engine detected a sequence gap and requests retransmission
    of ``(peer -> self, seq)``.

    ``attempt`` counts requests for this gap (1-based) and
    ``max_attempts`` is the engine's retry budget; an attempt beyond
    the budget is the ``retransmit-bounded`` violation.  ``backoff``
    is the exponential wait (transport clock units) before the next
    escalation.  The engine reports the request to its observer,
    then yields it; the fault layer services it from its retained-loss
    buffer, and a runner answers it with None.  Fault-free runs never
    emit this.
    """

    peer: int
    seq: int
    attempt: int
    max_attempts: int
    backoff: float


#: Every effect the engine may yield (for transports that dispatch).
Effect = (Send, Recv, TryRecv, Charge, IterationDone, Retransmit)
