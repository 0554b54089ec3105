"""Exception types used by the discrete-event kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself.

    Application-level exceptions raised inside a process generator are
    *not* wrapped in this type; they propagate through the process
    event so callers see the original exception.
    """


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""

