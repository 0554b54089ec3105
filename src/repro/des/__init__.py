"""Discrete-event simulation kernel.

A small, deterministic, simpy-flavoured event engine.  Simulated
entities are ordinary Python generator functions ("processes") that
``yield`` :class:`~repro.des.events.Event` objects to wait on; the
:class:`~repro.des.environment.Environment` owns the virtual clock and
the event calendar.

The kernel is intentionally minimal — just what the virtual-machine
substrate (:mod:`repro.vm`), its networks (:mod:`repro.netsim`) and
the DES backend's :class:`~repro.engine.loopback.CalendarRunner`,
which schedules each rank's steps as calendar entries, need:

* :class:`Environment` — clock + event calendar, ``run``/``step``.
* :class:`Event` — one-shot occurrence carrying a value or an error.
* :class:`Timeout` — event that fires after a virtual delay.
* :class:`Process` — generator wrapper; itself an event that fires when
  the generator returns.
* :class:`AllOf` — the event that waits for a set of events.
* :class:`Store` — unbounded FIFO with blocking ``get`` and an
  immediate event-less ``put`` (a processor's mailbox).

Determinism: the calendar orders events by (time, priority, insertion)
and by nothing else; no wall-clock or unseeded randomness is consulted
anywhere in the kernel.  Priority 0 is bookkeeping (a process or a
runner's rank starting, a process resuming), 1 every ordinary event;
a model may schedule above 1 to run after the rest of an instant (the
shared bus does, see :mod:`repro.netsim.bus`).  A time that was
computed is scheduled as computed —
``Event.succeed(at=T)`` / ``Environment.schedule_at`` — because
``now + (T - now)`` need not be ``T`` (DESIGN.md §5.9).
"""

from repro.des.environment import Environment
from repro.des.errors import SimulationError
from repro.des.events import AllOf, Event, Process, Timeout
from repro.des.resources import Resource, Store

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
]
