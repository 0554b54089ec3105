"""The simulation environment: virtual clock + event calendar."""

from __future__ import annotations

import heapq
from itertools import count
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.des.errors import EmptySchedule, SimulationError, StopSimulation
from repro.des.events import Event, Process, Timeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.sanitizer import ProtocolSanitizer


class Environment:
    """Execution environment for a single discrete-event simulation.

    Owns the virtual clock (:attr:`now`, a plain attribute because it
    is the hottest read of a run; only :meth:`step` and :meth:`run`
    write it) and a priority queue of triggered events.  Events
    scheduled for the same instant are processed in (priority,
    insertion) order, which makes runs fully deterministic.  The
    clock starts at 0.

    Examples
    --------
    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(3.5)
    ...     return env.now
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> p.value
    3.5
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = count()
        #: Optional runtime protocol sanitizer (see
        #: :mod:`repro.engine.sanitizer`); None = zero overhead.
        self.sanitizer: Optional["ProtocolSanitizer"] = None

    # -- event factories --------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str | None = None) -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    # -- scheduling ---------------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        """Place a triggered event on the calendar ``delay`` from now.

        ``priority`` breaks ties at equal times (lower runs first);
        the kernel uses priority 0 for process bookkeeping events so
        that a process starts or resumes before the ordinary events of
        its instant.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._queue, (self.now + delay, priority, next(self._eid), event))

    def schedule_at(self, event: Event, time: float, priority: int = 1) -> None:
        """Place a triggered event on the calendar at absolute ``time``.

        For a completion whose instant was computed rather than
        counted down to: ``now + (time - now)`` need not equal
        ``time``, so :meth:`schedule` cannot land on it exactly.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        heapq.heappush(self._queue, (time, priority, next(self._eid), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        prev_now = self.now
        try:
            self.now, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no more events") from None
        if self.sanitizer is not None:
            # Event state machine + monotonic clock invariants.
            self.sanitizer.on_event_processed(event, self.now, prev_now)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            # Nobody was waiting on a failed event: surface the error.
            raise event._value

    # -- run loop ---------------------------------------------------------------
    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the calendar is empty.
            * a number — run until the clock reaches that time.
            * an :class:`Event` — run until that event is processed and
              return its value (raising its exception if it failed).

        Returns
        -------
        The ``until`` event's value, if an event was given; else None.
        """
        stop_at: Optional[float] = None
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
                    # Already processed; just report its outcome.
                    if until._ok:
                        return until._value
                    until.defused = True
                    raise until._value
                until.add_callback(_stop_simulation)
            else:
                stop_at = float(until)
                if stop_at < self.now:
                    raise SimulationError(
                        f"until={stop_at} is in the past (now={self.now})"
                    )

        queue, step = self._queue, self.step
        try:
            while queue:
                if stop_at is not None and queue[0][0] > stop_at:
                    self.now = stop_at
                    return None
                step()
        except StopSimulation as stop:
            event: Event = stop.value
            if event._ok:
                return event._value
            event.defused = True
            raise event._value from None

        if isinstance(until, Event) and not until.triggered:
            raise SimulationError(
                "simulation ended before the awaited event triggered"
            )
        if stop_at is not None and stop_at > self.now:
            self.now = stop_at
        return None

    def __repr__(self) -> str:
        return f"<Environment now={self.now} pending={len(self._queue)}>"


def _stop_simulation(event: Event) -> None:
    """Callback that aborts :meth:`Environment.run` at ``event``."""
    raise StopSimulation(event)
