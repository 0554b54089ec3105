"""The fault seam: one stage in every backend's engine effect stream.

:class:`FaultyEngine` wraps an engine's effect generator and injects
the plan between the transport and the engine: arrivals responding to
``Recv`` / ``TryRecv`` are filtered through the rank's
:class:`~repro.faults.injector.FaultInjector`, re-deliveries are
served from the wrapper's local queue (never touching the wire, so
the transport's own sequence bookkeeping stays contiguous), and the
engine's :class:`~repro.engine.events.Retransmit` requests are
serviced from the retained-loss buffer.  :class:`FaultInjected`
events are pushed downstream so each backend's observer seat
(sanitizer + EventLog) records them through its normal dispatch.  A
straggler's factor multiplies ``Charge.ops`` and rides along as
``Charge.factor`` for the medium that times phases instead of
counting ops.

Clocking: the injector's clock unit is one receive poll, on every
backend.  While the injector holds anything, a blocking receive is
bounded with ``Recv.timeout`` so a fruitless poll lasts at most one
clock unit of the medium — a scheduler round on the loopback, one
wall second on pipes; with nothing held the receive goes through
untouched and the rank parks in its transport.  Under DES — whose
mailbox has no timeout — the wrapper polls with ``TryRecv`` and
charges 1 % of an iteration's compute as virtual comm time between
polls, which *is* the "exponential backoff in transport clock units"
of the retransmit story: waiting costs simulated time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Any, Deque, Generator, Optional

from repro.engine.core import RetransmitExhausted
from repro.engine.events import (
    Arrival,
    Charge,
    IterationDone,
    Recv,
    Retransmit,
    TryRecv,
)
from repro.faults.injector import FaultInjector, InjectedCrash
from repro.faults.plan import FaultPlan


class FaultyEngine:
    """Proxy an engine, injecting a :class:`FaultPlan` into its
    effect stream (see the module docstring).  Attributes the wrapper
    does not define read through to the wrapped engine, so backends
    keep reading ``engine.fw`` / ``engine.stats`` off it."""

    def __init__(
        self, engine: Any, plan: FaultPlan, charge_poll: bool = False
    ) -> None:
        self._engine = engine
        self.injector = FaultInjector(plan, engine.rank)
        self._charge_poll = charge_poll
        # One DES poll costs a sliver of an iteration's compute: enough
        # to advance virtual time, cheap enough not to dominate.
        self._poll_ops = 0.01 * float(engine.program.compute_ops(engine.rank))
        self._pending: Deque[Arrival] = deque()
        self._stalled = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)

    # ---------------------------------------------------------------- running
    def run(self) -> Generator:
        inj = self.injector
        gen = self._engine.run()
        response: Any = None
        while True:
            try:
                effect = gen.send(response)
            except StopIteration as stop:
                return stop.value
            response = None
            kind = type(effect)
            if kind is Recv or kind is TryRecv:
                response = yield from self._receive(effect)
            elif kind is Retransmit:
                inj.on_retransmit_request(effect.peer, effect.seq)
                yield effect  # observers still record the request
            elif kind is Charge:
                slow = inj.slowdown_for(effect.iteration)
                if slow > 1.0:
                    effect = replace(
                        effect, ops=effect.ops * slow, factor=slow
                    )
                response = yield effect
            elif kind is IterationDone:
                if inj.crash_due(effect.iteration):
                    raise InjectedCrash(
                        f"rank {self._engine.rank}: planned crash at "
                        f"iteration {effect.iteration}"
                    )
                response = yield effect
            else:
                response = yield effect

    def _receive(self, effect: Any) -> Generator:
        """Satisfy one Recv/TryRecv through the fault layer."""
        inj = self.injector
        pending = self._pending
        blocking = type(effect) is Recv
        while True:
            pending.extend(inj.tick())
            if pending:
                self._stalled = 0
                return pending.popleft()
            if not blocking:
                arrival = yield TryRecv()
                if arrival is None:
                    return None
            elif self._charge_poll and inj.outstanding():
                # DES: no mailbox timeout — poll, paying virtual time.
                arrival = yield TryRecv()
                if arrival is None:
                    yield Charge(
                        ops=self._poll_ops, phase="comm",
                        iteration=effect.iteration,
                    )
                    self._note_stall(effect)
                    continue
            else:
                timeout = effect.timeout
                if inj.outstanding():
                    timeout = 1.0 if timeout is None else min(timeout, 1.0)
                arrival = yield replace(effect, timeout=timeout)
                if arrival is None:
                    if effect.timeout is not None:
                        return None  # the engine's own timer: let it escalate
                    self._note_stall(effect)
                    continue
            self._stalled = 0
            deliver, events = inj.admit(arrival)
            for event in events:
                yield event
            pending.extend(deliver)

    def _note_stall(self, effect: Any) -> None:
        """One fruitless bounded poll while the engine itself set no
        timeout (no sequence gap is open to escalate).

        With ``plan.retransmit`` off a retained loss can never be
        re-delivered, and when the loss also stalled its sender no
        later arrival will ever open a gap — the engine's own retry
        budget cannot engage.  Bound those silent polls so the run
        fails loudly instead of livelocking.
        """
        inj = self.injector
        if inj.plan.retransmit or not inj.lost:
            self._stalled = 0
            return
        self._stalled += 1
        budget = inj.plan.sender_timeout * (inj.plan.max_retries + 1)
        if self._stalled > budget:
            keys = sorted(inj.lost)
            raise RetransmitExhausted(
                f"rank {self._engine.rank}: dropped message(s) "
                f"{keys} (src, seq) cannot be recovered — retransmission "
                f"is disabled and no later arrival opened a sequence gap "
                f"within {budget:g} polls"
            )


def wrap_engine(
    engine: Any,
    plan: Optional[FaultPlan],
    charge_poll: bool = False,
) -> Any:
    """Wrap ``engine`` in the fault seam, or pass it through untouched
    when no plan is given (the fault-free fast path stays unchanged)."""
    if plan is None:
        return engine
    return FaultyEngine(engine, plan, charge_poll=charge_poll)
