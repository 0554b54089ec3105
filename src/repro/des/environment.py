"""The simulation environment: virtual clock + calendar of callbacks."""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from math import inf
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.des.errors import EmptySchedule, SimulationError
from repro.des.events import Event, Process, Timeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.sanitizer import ProtocolSanitizer


class Environment:
    """Execution environment for a single discrete-event simulation.

    Owns the virtual clock (:attr:`now`, a plain attribute because it
    is the hottest read of a run; only :meth:`step` and :meth:`run`
    write it) and the calendar: one heap of ``(time, priority, seq,
    callback, value)`` entries.  Entries of one instant run in
    (priority, insertion) order, which makes runs fully deterministic.
    The clock starts at 0.

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
        self._queue: list[tuple[float, int, int, Callable[[Any], None], Any]] = []
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
    def schedule(
        self,
        time: float,
        callback: Callable[[Any], None],
        value: Any = None,
        priority: int = 1,
    ) -> None:
        """Call ``callback(value)`` at the absolute virtual ``time``.

        ``priority`` breaks ties at equal times (lower runs first); 0
        is bookkeeping that runs before the ordinary entries of its
        instant.  The time is absolute because a computed instant is
        scheduled as computed: ``now + (time - now)`` need not be
        ``time`` (DESIGN.md §5.9).
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        heappush(self._queue, (time, priority, next(self._eid), callback, value))

    def peek(self) -> float:
        """Time of the next calendar entry, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else inf

    def step(self) -> None:
        """Run exactly one calendar entry (advancing the clock to it)."""
        prev_now = self.now
        try:
            self.now, _, _, callback, value = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no more events") from None
        if self.sanitizer is not None:
            # Monotonic clock; the state machine if the entry is an Event.
            self.sanitizer.on_event_processed(callback, self.now, prev_now)
        callback(value)

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
        queue, step = self._queue, self.step
        if isinstance(until, Event):
            # The run reports the event's failure; processing it does not.
            until.defused = True
            while until.callbacks is not None:
                if not queue:
                    raise SimulationError(
                        "simulation ended before the awaited event triggered"
                    )
                step()
            if until._ok:
                return until._value
            raise until._value
        stop_at = inf if until is None else float(until)
        if stop_at < self.now:
            raise SimulationError(f"until={stop_at} is in the past (now={self.now})")
        while queue and queue[0][0] <= stop_at:
            step()
        if until is not None:
            self.now = stop_at
        return None

    def __repr__(self) -> str:
        return f"<Environment now={self.now} pending={len(self._queue)}>"

