"""Exception types used by the discrete-event kernel."""

from __future__ import annotations

from typing import Any


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself.

    Application-level exceptions raised inside a process generator are
    *not* wrapped in this type; they propagate through the process
    event so callers see the original exception.
    """


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopSimulation(Exception):
    """Internal control-flow exception that ends :meth:`Environment.run`.

    Raised when the ``until`` event of a ``run`` call has been
    processed.  Not a :class:`SimulationError` because it is never
    visible to user code.
    """

    def __init__(self, value: Any) -> None:
        super().__init__(value)
        self.value = value
