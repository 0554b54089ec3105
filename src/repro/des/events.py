"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence.  It moves through three
states:

``pending``
    created, not yet scheduled; processes may add callbacks / wait.
``triggered``
    given a value (or an exception) and placed on the calendar.
``processed``
    its calendar entry has run, and with it its callbacks.

An event is its own calendar callback: triggering it schedules the
event itself, and the calendar calling it runs its callback list.

:class:`Process` doubles as an event: it triggers when its generator
returns (value = the generator's return value) or raises (the event
fails with that exception).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from repro.des.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.environment import Environment

# Sentinel distinguishing "no value yet" from a legitimate None value.
_PENDING = object()

Callback = Callable[["Event"], None]


class Event:
    """A one-shot occurrence in virtual time.

    Parameters
    ----------
    env:
        The owning :class:`~repro.des.environment.Environment`.

    Notes
    -----
    Events support ``succeed(value)`` and ``fail(exception)``; both may
    be called at most once.  Waiting is expressed by a process
    ``yield``-ing the event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callback] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set True once a failed event's exception has been delivered
        #: to at least one waiter (used to diagnose unhandled failures).
        self.defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception and is scheduled."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = 1) -> "Event":
        """Trigger the event successfully with ``value``, to be processed
        at the current instant.  Returns ``self`` so triggering can be
        chained/returned."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self.env.now, self, None, priority)
        return self

    def fail(self, exception: BaseException, priority: int = 1) -> "Event":
        """Trigger the event as failed with ``exception``.

        Waiting processes will have the exception thrown into them.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self.env.now, self, None, priority)
        return self

    def __call__(self, _value: Any) -> None:
        """The event's calendar entry: run its callbacks, once."""
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)
        if not self._ok and not self.defused:
            # Nobody was waiting on a failed event: surface the error.
            raise self._value

    # -- misc ---------------------------------------------------------------
    def add_callback(self, callback: Callback) -> None:
        """Run ``callback(self)`` when the event is processed."""
        if self.callbacks is None:
            raise SimulationError(f"{self!r} already processed")
        self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.callbacks is None
            else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """Event that triggers ``delay`` units of virtual time after creation.

    Parameters
    ----------
    env:
        Owning environment.
    delay:
        Non-negative virtual-time delay.
    value:
        Value delivered when the timeout fires (default ``None``).
    """

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self._ok = True
        self._value = value
        env.schedule(env.now + delay, self)


class Process(Event):
    """A running simulated process wrapping a generator.

    The generator yields :class:`Event` objects; the process is resumed
    with the event's value (or the event's exception thrown in).  The
    process *is itself an event* that triggers when the generator
    finishes, so processes can wait on each other::

        def child(env):
            yield env.timeout(5)
            return 42

        def parent(env):
            result = yield env.process(child(env))
            assert result == 42
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str | None = None) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        env.schedule(env.now, self._resume, None, 0)

    # -- internal -----------------------------------------------------------
    def _resume(self, event: Optional[Event]) -> None:
        """Advance the generator with the outcome of ``event`` (None:
        start it)."""
        ok = event is None or event._ok
        sanitizer = self.env.sanitizer
        if sanitizer is not None:
            sanitizer.note(
                f"t={self.env.now:.6g}: resume {self.name} "
                f"({'ok' if ok else 'throw'})"
            )
        try:
            if ok:
                next_event = self._generator.send(
                    None if event is None else event._value)
            else:
                event.defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return

        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process {self.name!r} yielded a non-event: {next_event!r}"
            )
        if next_event.callbacks is None:
            # Already processed: resume at the current instant.
            self.env.schedule(self.env.now, self._resume, next_event, 0)
        else:
            next_event.add_callback(self._resume)

    def __repr__(self) -> str:
        state = "alive" if self._value is _PENDING else "finished"
        return f"<Process {self.name!r} {state}>"


class AllOf(Event):
    """Composite event that triggers once *all* sub-events have.

    It fails as soon as any sub-event fails.  Its value is a dict
    mapping each sub-event to its value, in the order given;
    :meth:`~repro.vm.cluster.Cluster.run` waits on one over the rank
    processes.
    """

    __slots__ = ("_events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._done = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("condition spans multiple environments")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        self._done += 1
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        elif self._done == len(self._events):
            # Every sub-event has been processed, and none failed.
            self.succeed({e: e._value for e in self._events})
