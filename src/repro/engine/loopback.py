"""The in-process executor: the whole protocol in one process.

The cheapest possible medium — one FIFO queue per destination rank,
stepped by a deterministic schedule — useful for

* unit tests of protocol *logic* (what is sent, speculated, verified,
  corrected) without dragging in the DES kernel or real processes;
* toys and teaching: ``run(RunConfig(program, backend="loopback"))``
  runs the full speculative protocol on any
  :class:`SyncIterativeProgram` in microseconds;
* differential testing: loopback, DES and pipe backends drive the
  *same* :class:`~repro.engine.core.SpecEngine`, so their speculation
  counters and final numerics must agree wherever timing does not
  feed back into the numerics;
* model checking: :class:`LoopbackRunner` is the one in-process
  executor.  :meth:`~LoopbackRunner.resume` steps one rank until it
  parks or returns and :meth:`~LoopbackRunner.pop` delivers one queued
  message; :meth:`~LoopbackRunner.run` is the round-robin schedule
  over them, and specmc's
  :class:`~repro.analysis.modelcheck.model.Execution` is the same
  runner under an explicit schedule of every delivery order;
* simulation: :class:`CalendarRunner` is the same runner on a
  simulated cluster's calendar, the DES backend.  Only the primitives
  ``resume`` hands ``Send``, ``Charge`` and the receives to differ:
  there they take virtual time.

Under :class:`LoopbackRunner` delivery is immediate (messages become
receivable the moment they are sent) and per-pair FIFO.  The
round-robin schedule itself produces speculative executions: a rank
scheduled ahead of its peers reaches iteration ``t`` before their
``X(t)`` was sent, speculates, runs on, and verifies when the
scheduler hands the peers their turn — the protocol's full
speculate/verify/correct path, deterministically, with no clocks.
Each ``Charge`` advances the rank's own op clock and leaves a
:class:`~repro.trace.PhaseTrace` row on it (the loopback's "time"; a
blocked receive costs no ops and leaves none).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import count
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.engine.events import Arrival, Charge, Recv, Send, TryRecv
from repro.engine.observer import RankObserver
from repro.engine.sanitizer import ProtocolSanitizer, resolve_sanitizer
from repro.trace.phases import PhaseTrace


class LoopbackDeadlock(RuntimeError):
    """Every unfinished rank is blocked on a receive no queued or
    future message can satisfy."""


#: One queued message: (src, seq, family, iteration, payload).
_QueuedMessage = Tuple[int, int, str, int, Any]


class LoopbackRunner:
    """Runs one engine per rank over in-process FIFO queues.

    Parameters
    ----------
    engines:
        rank -> engine (``SpecEngine`` or ``ReceiveDrivenEngine``);
        every ``Send.dst`` must name another engine in the mapping.
    event_log:
        Optional :class:`~repro.trace.events.EventLog`; protocol
        events are recorded with the scheduler's step counter as the
        logical clock, ready for ``repro analyze --trace`` replay.
    sanitize:
        Run under the :class:`~repro.engine.sanitizer.ProtocolSanitizer`
        (the same runtime seat the DES and pipe backends use); ``None``
        (default) defers to the ``REPRO_SANITIZE`` environment variable.
        An already-built sanitizer is shared as is (the loopback
        backend hands over the one its engines were built with).
    """

    def __init__(
        self,
        engines: Dict[int, Any],
        event_log: Any = None,
        sanitize: "Optional[bool | ProtocolSanitizer]" = None,
    ) -> None:
        if not engines:
            raise ValueError("need at least one engine")
        self.engines = dict(engines)
        self.event_log = event_log
        self.sanitizer: Optional[ProtocolSanitizer] = resolve_sanitizer(sanitize)
        self.queues: Dict[int, Deque[_QueuedMessage]] = {
            rank: deque() for rank in self.engines
        }
        #: rank -> phase rows on the rank's op clock, one per Charge.
        self.traces: Dict[int, PhaseTrace] = {
            rank: PhaseTrace(rank) for rank in self.engines
        }
        self._ops_clock: Dict[int, float] = dict.fromkeys(self.engines, 0.0)
        #: ``(rank, kind, peer, family, iteration, args=())`` -> one
        #: trace record, stamped with :meth:`_clock`.  It holds no
        #: reference to the runner, so a finished run is freed at once.
        self._record = _sink(event_log, self._clock())
        #: Scheduler sweeps completed — the loopback's ``wall_seconds``
        #: and the unit of ``Recv.timeout``.  Nothing else is timed:
        #: ``IterationDone`` is answered with None and arrivals carry
        #: no wait or transit, so a seated policy reads the engine's op
        #: clock, has no evidence of latency and holds its window.
        self.rounds = 0
        #: rank -> the ``Recv`` / ``TryRecv`` the rank is parked on.
        self.parked: Dict[int, Any] = {}
        #: rank -> final block, for every rank that has returned.
        self.finals: Dict[int, Any] = {}
        #: rank -> observer seat (no clock).
        self.observers: Dict[int, RankObserver] = {}
        #: rank -> what :meth:`resume` drives: the engine generator's
        #: ``send`` and the observer's ``notify``.
        self._seats: Dict[int, Tuple[Any, Any]] = {}
        for rank, engine in self.engines.items():
            observer = self.observers[rank] = RankObserver(
                rank,
                sanitizer=self.sanitizer,
                record=(
                    None if event_log is None else partial(self._record, rank)
                ),
            )
            observer.begin(engine)
            self._seats[rank] = (engine.run().send, observer.notify)

    @property
    def window_history(self) -> Dict[int, list[Tuple[int, int]]]:
        """rank -> (iteration, fw) trajectory from each rank's observer."""
        return {r: obs.window_history for r, obs in self.observers.items()}

    # -------------------------------------------------------------- running
    def run(self) -> Dict[int, Any]:
        """Execute every rank to completion under the round-robin
        schedule; rank -> final block.  A rank parked on a ``Recv``
        resumes with the message, or with None once its ``timeout`` (in
        rounds) expires; ``TryRecv`` is answered on the spot."""
        parked = self.parked
        #: rank -> round at which a parked Recv's ``timeout`` expires
        #: (the rank then resumes with None so the engine's retransmit
        #: timer can escalate; fault-free engines never set one).
        deadlines: Dict[int, int] = {}
        ranks = sorted(self.engines)
        while len(self.finals) < len(ranks):
            progress = False
            self.rounds += 1
            for rank in ranks:
                if rank in self.finals:
                    continue
                effect = parked.get(rank)
                response: Optional[Arrival] = None
                if effect is not None:
                    response = self._match(rank, effect.match)
                    if response is None and self.rounds < deadlines.get(
                        rank, self.rounds + 1
                    ):
                        continue  # still blocked (a timed park: until due)
                    deadlines.pop(rank, None)
                progress = True
                # Step this rank until it blocks or finishes.
                while True:
                    self.resume(rank, response)
                    effect = parked.get(rank)
                    if effect is None:
                        break  # finished
                    if type(effect) is TryRecv:
                        response = self._match(rank, None)
                        continue
                    response = self._match(rank, effect.match)
                    if response is None:
                        if effect.timeout is not None:
                            deadlines[rank] = (
                                self.rounds + max(1, int(effect.timeout))
                            )
                        break
            if not progress:
                if deadlines:
                    # A bounded park is still counting down: advancing
                    # the round clock toward its deadline *is* progress.
                    continue
                waiting = {
                    rank: (eff.match, eff.iteration)
                    for rank, eff in sorted(parked.items())
                }
                raise LoopbackDeadlock(
                    f"no rank can make progress; blocked receives: {waiting}"
                )
        return self.finals

    def resume(self, rank: int, response: Optional[Arrival] = None) -> None:
        """Step ``rank`` from ``response`` until it parks (:attr:`parked`)
        or returns (:attr:`finals`): ``Send``, ``Charge`` and the receives
        go to this runner's primitives, anything else to the rank's
        observer."""
        parked = self.parked
        parked.pop(rank, None)
        send, notify = self._seats[rank]
        while True:
            try:
                effect = send(response)
            except StopIteration as stop:
                self.finals[rank] = stop.value
                if len(self.finals) == len(self.engines):
                    self._end()
                return
            kind = type(effect)
            if kind is Send:
                self._send(rank, effect)
                response = None
            elif kind is Charge:
                response = self._charge(rank, effect)
                if rank in parked:
                    return
            elif kind is Recv or kind is TryRecv:
                response = self._receive(rank, effect)
                if rank in parked:
                    return
            else:
                response = notify(effect)

    # ----------------------------------------------------------- primitives
    def _charge(self, rank: int, effect: Charge) -> Optional[float]:
        """A row on the rank's op clock; no clock reading to answer."""
        start = self._ops_clock[rank]
        self._ops_clock[rank] = end = start + effect.ops
        self.traces[rank].record(effect.phase, start, end, effect.iteration)
        return None

    def _receive(self, rank: int, effect: Any) -> Optional[Arrival]:
        """Park on every ``Recv`` / ``TryRecv``: the schedule answers it."""
        self.parked[rank] = effect
        return None

    def _end(self) -> None:
        """The last rank returned."""
        if self.sanitizer is not None:
            self.sanitizer.on_run_end()

    # ------------------------------------------------------------ messaging
    def _send(self, src: int, effect: Send) -> None:
        if effect.dst not in self.queues:
            raise ValueError(f"send to unknown rank {effect.dst}")
        self._record(src, "send", effect.dst, effect.family, effect.iteration)
        self.queues[effect.dst].append(
            (src, effect.seq, effect.family, effect.iteration, effect.payload)
        )

    def pop(self, rank: int, i: int, check_seq: bool = True) -> Arrival:
        """Take message ``i`` off ``rank``'s queue: record the ``recv``,
        then (``check_seq``) hand its stamp to the sanitizer's
        sequence-gap check; the record carries the stamp if checked."""
        queue = self.queues[rank]
        src, seq, family, iteration, payload = queue[i]
        del queue[i]
        self._record(
            rank, "recv", src, family, iteration, (seq,) if check_seq else ())
        if check_seq and self.sanitizer is not None:
            self.sanitizer.on_delivery(rank, src, seq)
        return Arrival(src=src, iteration=iteration, payload=payload, seq=seq)

    def _match(
        self, rank: int, match: Optional[Tuple[str, int]]
    ) -> Optional[Arrival]:
        """Pop ``rank``'s oldest queued message matching ``(family,
        iteration)`` (None matches any)."""
        for i, (_src, _seq, family, iteration, _payload) in enumerate(
            self.queues[rank]
        ):
            if match is None or (family, iteration) == match:
                return self.pop(rank, i)
        return None

    # ------------------------------------------------------------ observers
    def _clock(self) -> Callable[[], float]:
        """The trace stamp: a step counter stands in for a clock."""
        steps = count(1)
        return lambda: float(next(steps))


def _sink(event_log: Any, stamp: Callable[[], float]) -> Callable[..., None]:
    """The runner's trace sink into ``event_log`` (a no-op without one)."""
    if event_log is None:
        return lambda *_: None
    return lambda rank, kind, peer, family, iteration, args=(): event_log.record(
        kind, rank, stamp(), peer, family, iteration, args)


class CalendarRunner(LoopbackRunner):
    """:class:`LoopbackRunner` on a :class:`~repro.vm.Cluster`'s
    calendar: the DES backend (rank ``r`` on processor ``r``; records,
    phase rows and ``IterationDone`` answers in virtual seconds).

    A ``Charge`` of ``s > 0`` seconds wakes the rank at ``now + s``; a
    ``Send`` goes through the network, whose delivery queues it; a
    ``Recv`` is served the moment a queued message matches it, and the
    rank wakes at (now, priority 1); a wake books the phase row; a
    ``TryRecv`` takes the oldest queued message.  Those placements
    decide every makespan (DESIGN.md 5.9).  ``Arrival.seq`` is the
    message's ``Send.seq``.
    """

    def __init__(
        self,
        cluster: Any,
        engines: Dict[int, Any],
        event_log: Any = None,
        sanitize: "Optional[bool | ProtocolSanitizer]" = None,
    ) -> None:
        self.env = env = cluster.env
        self.network = cluster.network
        super().__init__(engines, event_log=event_log, sanitize=sanitize)
        if self.sanitizer is not None:
            env.sanitizer = self.sanitizer
        #: rank -> its processor spec's price of ops (which refuses
        #: negative ops), bound once: a Charge costs one frame for it.
        self._seconds_for = {
            rank: cluster.processors[rank].spec.seconds_for for rank in self.engines
        }
        for observer in self.observers.values():
            observer.clock = lambda: env.now
        #: rank -> when the Charge / Recv it is parked on began.
        self._since: Dict[int, float] = {}
        #: rank -> the parked Recv no queued message has matched yet.
        self._blocked: Dict[int, Recv] = {}
        #: rank -> its calendar callback (start, or wake with a value).
        self._wakers = {rank: partial(self._wake, rank) for rank in self.engines}
        self._done = env.event()

    def run(self) -> Dict[int, Any]:
        """Start every rank (priority 0, rank order) and run the calendar
        until the last one returns; rank -> final block, in rank order."""
        for rank in sorted(self.engines):
            self.env.schedule(self.env.now, self._wakers[rank], None, 0)
        self.env.run(until=self._done)
        self._wakers.clear()  # each refers back to this runner: a cycle
        return dict(sorted(self.finals.items()))

    def _wake(self, rank: int, value: Any) -> None:
        """Calendar callback: start ``rank``, or book the ``Charge`` /
        ``Recv`` it is parked on as a phase row and resume it with
        ``value`` (the seconds charged, or the message served)."""
        effect = self.parked.get(rank)
        response = None
        if effect is not None:
            now, start = self.env.now, self._since[rank]
            self.traces[rank].record(effect.phase, start, now, effect.iteration)
            response = value
            if type(effect) is Recv:
                response = self._arrival(rank, response, now - start)
        self.resume(rank, response)

    def _end(self) -> None:
        super()._end()
        self._done.succeed()

    # ----------------------------------------------------------- primitives
    def _charge(self, rank: int, effect: Charge) -> float:
        seconds = self._seconds_for[rank](effect.ops)
        if seconds != 0:  # the calendar rejects a negative one
            self.parked[rank] = effect
            self._since[rank] = now = self.env.now
            self.env.schedule(now + seconds, self._wakers[rank], seconds)
        return seconds

    def _receive(self, rank: int, effect: Any) -> Optional[Arrival]:
        queue = self.queues[rank]
        if type(effect) is TryRecv:
            return self._arrival(rank, queue.popleft(), 0.0) if queue else None
        self.parked[rank] = self._blocked[rank] = effect
        self._since[rank] = self.env.now
        self._serve(rank)
        return None

    def _send(self, src: int, effect: Send) -> None:
        if effect.dst not in self.queues:
            raise ValueError(f"send to unknown rank {effect.dst}")
        self._record(src, "send", effect.dst, effect.family, effect.iteration)
        self.network.transmit(src, effect.dst, int(effect.nbytes),
                              partial(self._deliver, src, effect, self.env.now))

    def _deliver(self, src: int, effect: Send, sent: float, _: Any) -> None:
        """Queue a delivered message as (src, seq, family, iteration,
        payload, transit) and serve its receiver."""
        self.queues[effect.dst].append((
            src, effect.seq, effect.family, effect.iteration, effect.payload,
            self.env.now - sent,
        ))
        self._serve(effect.dst)

    def _serve(self, rank: int) -> None:
        """Hand ``rank``'s blocked ``Recv`` its oldest matching message."""
        effect = self._blocked.get(rank)
        if effect is None:
            return
        queue = self.queues[rank]
        for i, message in enumerate(queue):
            if effect.match is None or (message[2], message[3]) == effect.match:
                del queue[i], self._blocked[rank]
                self.env.schedule(self.env.now, self._wakers[rank], message)
                return

    def _arrival(self, rank: int, message: Any, waited: float) -> Arrival:
        src, seq, family, iteration, payload, latency = message
        self._record(rank, "recv", src, family, iteration)
        return Arrival(src, iteration, payload, waited, seq, latency)

    def _clock(self) -> Callable[[], float]:
        env = self.env
        return lambda: env.now
