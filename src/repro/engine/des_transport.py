"""DES transport: the engine on a simulated cluster.

Interprets the engine's effects against a
:class:`~repro.vm.processor.VirtualProcessor`:

* ``Send`` → ``proc.send(dst, payload, tag=(family, iteration))`` —
  the network model delivers through ``repro.netsim``, and every
  ``Arrival`` carries the message's virtual transit time (the window
  policy's latency signal);
* ``Recv`` / ``TryRecv`` → ``proc.recv`` / ``proc.try_recv`` (blocked
  spans are traced as the effect's phase and reported back as
  ``Arrival.waited`` virtual seconds — the adaptive controller's
  signal);
* ``Charge`` → what ``proc.compute(ops, phase, iteration)`` does —
  virtual time at the processor's capacity (times any background
  load), booked through ``proc.charged`` — without the two generator
  frames; the engine gets the virtual seconds back;
* protocol events → the rank's
  :class:`~repro.engine.observer.RankObserver` (sanitizer hooks and
  the cluster's :class:`~repro.trace.events.EventLog`, stamped with
  virtual time).

Because receives and charges wait on simulator events, the interpreter
loop here is itself a generator: the DES backend's per-rank program
*is* ``DESTransport(proc, ...).drive(engine)``, handed to the cluster
as it stands.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.engine.events import Arrival, Charge, Recv, Send, TryRecv
from repro.engine.observer import RankObserver
from repro.engine.transport import TransportError
from repro.vm.processor import VirtualProcessor


class DESTransport:
    """One rank's bridge between a sans-I/O engine and the simulator.

    Parameters
    ----------
    proc:
        The rank's virtual processor.
    sanitizer:
        Optional runtime protocol sanitizer; engine events feed its
        speculate/compute/verify/cascade hooks.
    event_log:
        Optional trace-event recorder (send/recv are recorded by the
        processor itself; the engine's speculate/compute/verify/
        correct events are recorded here).
    """

    def __init__(
        self,
        proc: VirtualProcessor,
        sanitizer: Any = None,
        event_log: Any = None,
    ) -> None:
        self.proc = proc
        env, rank = proc.env, proc.rank
        #: The rank's observer seat; its clock is virtual time.
        self.observer = RankObserver(
            rank,
            sanitizer=sanitizer,
            record=None if event_log is None else (
                lambda kind, peer, family, iteration: event_log.record(
                    kind, rank, env.now, peer, family, iteration)
            ),
            clock=lambda: env.now,
        )
        #: Per-source arrival counter standing in for the wire seq:
        #: every ``repro.netsim`` network clamps its channels to FIFO
        #: (jitter included), so the k-th arrival from ``src`` carries
        #: ``Send.seq == k``.
        self._arrival_seq: dict[int, int] = {}

    # ------------------------------------------------------------- the loop
    def drive(self, engine: Any) -> Generator:
        """Interpret ``engine`` to completion (a DES rank program body).

        Return it from the rank program (or ``yield from`` it).
        """
        proc = self.proc
        env = proc.env
        notify = self.observer.notify
        self.observer.begin(engine)
        gen = engine.run()
        response: Optional[Arrival | float] = None
        while True:
            try:
                effect = gen.send(response)
            except StopIteration as stop:
                return stop.value
            response = None
            kind = type(effect)
            if kind is Send:
                proc.send(
                    effect.dst,
                    effect.payload,
                    tag=(effect.family, effect.iteration),
                    nbytes=effect.nbytes,
                )
            elif kind is Charge:
                # proc.compute, in this frame: a resume then walks
                # drive -> engine.run and no generator in between.
                seconds = proc.seconds_for(effect.ops)
                start = env.now
                if seconds != 0:  # Timeout rejects a negative delay
                    yield env.timeout(seconds)
                proc.charged(effect.phase, start, effect.iteration)
                response = seconds
            elif kind is Recv:
                start = env.now
                msg = yield from proc.recv(
                    tag=effect.match, phase=effect.phase,
                    iteration=effect.iteration,
                )
                response = self._arrival(msg, waited=env.now - start)
            elif kind is TryRecv:
                msg = proc.try_recv()
                response = self._arrival(msg) if msg is not None else None
            else:
                response = notify(effect)

    # ------------------------------------------------------------- plumbing
    def _arrival(self, msg: Any, waited: float = 0.0) -> Arrival:
        tag = msg.tag
        if not (isinstance(tag, tuple) and len(tag) == 2):  # pragma: no cover
            raise TransportError(f"unexpected message tag {tag!r}")
        family, iteration = tag
        if not isinstance(iteration, int):  # pragma: no cover - defensive
            raise TransportError(f"unexpected message tag {tag!r}")
        seq = self._arrival_seq.get(msg.src, 0)
        self._arrival_seq[msg.src] = seq + 1
        return Arrival(msg.src, iteration, msg.payload, waited, seq,
                       msg.latency)
