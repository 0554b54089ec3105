"""Discrete-event simulation kernel.

A small, deterministic, simpy-flavoured event engine.  Simulated
entities are ordinary Python generator functions ("processes") that
``yield`` :class:`~repro.des.events.Event` objects to wait on; the
:class:`~repro.des.environment.Environment` owns the virtual clock and
the event calendar.

The kernel is intentionally minimal.  Its calendar is one heap of
``(time, priority, seq, callback, value)`` entries, and the DES
backend's :class:`~repro.engine.loopback.CalendarRunner` and the
networks (:mod:`repro.netsim`) schedule plain callbacks on it.  The
event objects serve the virtual processors' own message API
(:mod:`repro.vm`) and programs run through ``Cluster.run``:

* :class:`Environment` — clock + calendar, ``schedule``/``run``/``step``.
* :class:`Event` — one-shot occurrence carrying a value or an error;
  its calendar entry runs its callbacks.
* :class:`Timeout` — event that fires after a virtual delay.
* :class:`Process` — generator wrapper; itself an event that fires when
  the generator returns.
* :class:`AllOf` — the event that waits for a set of events.
* :class:`Store` — unbounded FIFO with blocking ``get`` and an
  immediate event-less ``put`` (a processor's mailbox).

Determinism: the calendar orders entries by (time, priority, insertion)
and by nothing else; no wall-clock or unseeded randomness is consulted
anywhere in the kernel.  Priority 0 is bookkeeping (a process or a
runner's rank starting, a process resuming), 1 every ordinary entry;
a model may schedule above 1 to run after the rest of an instant (the
shared bus does, see :mod:`repro.netsim.bus`).  ``schedule`` takes an
absolute time, so a time that was computed is scheduled as computed:
``now + (T - now)`` need not be ``T`` (DESIGN.md §5.9).
"""

from repro.des.environment import Environment
from repro.des.errors import SimulationError
from repro.des.events import AllOf, Event, Process, Timeout
from repro.des.resources import Store

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "SimulationError",
    "Store",
    "Timeout",
]
