"""Loopback transport: the whole protocol in one process, no clock.

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
  executor.  Its primitives are :meth:`~LoopbackRunner.resume` (step
  one rank until it parks or returns) and :meth:`~LoopbackRunner.pop`
  (deliver one queued message); :meth:`~LoopbackRunner.run` is the
  round-robin schedule over them, and specmc's
  :class:`~repro.analysis.modelcheck.model.Execution` is the same
  runner under an explicit schedule of every delivery order.

Delivery is immediate (messages become receivable the moment they are
sent) and per-pair FIFO.  The round-robin schedule itself produces
speculative executions: a rank scheduled ahead of its peers reaches
iteration ``t`` before their ``X(t)`` was sent, speculates, runs on,
and verifies when the scheduler hands the peers their turn — the
protocol's full speculate/verify/correct path, deterministically,
with no clocks.  Each ``Charge`` advances the rank's own op clock and
leaves a :class:`~repro.trace.PhaseTrace` row on it (the loopback's
"time"; a blocked receive costs no ops and leaves none).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Deque, Dict, Optional, Tuple

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
        self._step = 0
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
        #: ``send``, the observer's ``notify``, the phase-row ``record``.
        self._seats: Dict[int, Tuple[Any, Any, Any]] = {}
        for rank, engine in self.engines.items():
            observer = self.observers[rank] = RankObserver(
                rank,
                sanitizer=self.sanitizer,
                record=(
                    None if event_log is None else partial(self._record, rank)
                ),
            )
            observer.begin(engine)
            self._seats[rank] = (
                engine.run().send, observer.notify, self.traces[rank].record
            )

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
        """Step ``rank`` from ``response`` until it parks on a ``Recv`` /
        ``TryRecv`` (:attr:`parked`) or returns (:attr:`finals`): ``Send``
        is queued, ``Charge`` is a row on the rank's op clock, anything
        else goes to the rank's observer."""
        self.parked.pop(rank, None)
        send, notify, record = self._seats[rank]
        clock = self._ops_clock
        while True:
            try:
                effect = send(response)
            except StopIteration as stop:
                self.finals[rank] = stop.value
                if (
                    len(self.finals) == len(self.engines)
                    and self.sanitizer is not None
                ):
                    self.sanitizer.on_run_end()
                return
            response = None
            kind = type(effect)
            if kind is Send:
                self._send(rank, effect)
            elif kind is Charge:
                start = clock[rank]
                clock[rank] = end = start + effect.ops
                record(effect.phase, start, end, effect.iteration)
            elif kind is Recv or kind is TryRecv:
                self.parked[rank] = effect
                return
            else:
                response = notify(effect)

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
    def _record(
        self, rank: int, kind: str, peer: Optional[int],
        family: Optional[str], iteration: Optional[int],
        args: Tuple[int, ...] = (),
    ) -> None:
        """Trace one event, stamped with the step counter."""
        if self.event_log is not None:
            self._step += 1
            self.event_log.record(
                kind, rank, float(self._step), peer, family, iteration, args)
