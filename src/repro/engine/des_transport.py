"""DES transport: the engine on a simulated cluster.

Interprets the engine's effects against a
:class:`~repro.vm.processor.VirtualProcessor`:

* ``Send`` → ``proc.send(dst, payload, tag=(family, iteration))`` —
  the network model delivers through ``repro.netsim``;
* ``Recv`` / ``TryRecv`` → ``proc.recv`` / ``proc.try_recv`` (blocked
  spans are traced as the effect's phase and reported back as
  ``Arrival.waited`` virtual seconds — the adaptive controller's
  signal);
* ``Charge`` → ``proc.compute(ops, phase, iteration)`` — virtual time
  at the processor's capacity (times any background load);
* protocol events → the runtime
  :class:`~repro.analysis.sanitizer.ProtocolSanitizer` hooks and the
  cluster's :class:`~repro.trace.events.EventLog`.

Because ``recv``/``compute`` are simulator coroutines, the interpreter
loop here is itself a generator: drivers ``yield from
DESTransport(proc, ...).drive(engine)`` inside their per-rank
programs.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.engine.events import (
    Arrival,
    CascadeBegin,
    CascadeEnd,
    CascadeStep,
    Charge,
    ComputeBegin,
    Corrected,
    Degraded,
    FaultInjected,
    IterationDone,
    Recv,
    Retransmit,
    Send,
    Speculated,
    TryRecv,
    Verified,
    WindowChanged,
)
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
    on_window:
        Optional ``WindowChanged -> None`` hook fired when the seated
        policy moves this rank's window (drivers collect
        ``fw_history`` here).
    """

    def __init__(
        self,
        proc: VirtualProcessor,
        sanitizer: Any = None,
        event_log: Any = None,
        on_window: Optional[Callable[[WindowChanged], None]] = None,
    ) -> None:
        self.proc = proc
        self.sanitizer = sanitizer
        self.event_log = event_log
        self.on_window = on_window
        #: Per-source arrival counter standing in for the wire seq:
        #: the DES network is per-pair FIFO by construction, so the
        #: k-th arrival from ``src`` carries ``Send.seq == k``.
        self._arrival_seq: dict[int, int] = {}

    # ------------------------------------------------------------- the loop
    def drive(self, engine: Any) -> Generator:
        """Interpret ``engine`` to completion (a DES rank program body).

        Use as ``final = yield from transport.drive(engine)``.
        """
        proc = self.proc
        gen = engine.run()
        response: Optional[Arrival] = None
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
                yield from proc.compute(
                    effect.ops, phase=effect.phase, iteration=effect.iteration
                )
            elif kind is Recv:
                start = proc.env.now
                msg = yield from proc.recv(
                    tag=effect.match, phase=effect.phase,
                    iteration=effect.iteration,
                )
                response = self._arrival(msg, waited=proc.env.now - start)
            elif kind is TryRecv:
                msg = proc.try_recv()
                response = self._arrival(msg) if msg is not None else None
            else:
                response = self._notify(effect)

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
        return Arrival(
            src=msg.src, iteration=iteration, payload=msg.payload,
            waited=waited, seq=seq,
        )

    def _notify(self, effect: Any) -> Optional[float]:
        """Fan one protocol event out to the sanitizer and event log.

        Returns the virtual clock for ``IterationDone`` (the seated
        window policy's timebase); None for every other event.
        """
        proc = self.proc
        san = self.sanitizer
        log = self.event_log
        rank = proc.rank
        now = proc.env.now
        kind = type(effect)
        if kind is Speculated:
            if san is not None:
                san.on_speculate(rank, effect.peer, effect.iteration)
            if log is not None and not effect.in_cascade:
                log.record(
                    "speculate", rank, now, peer=effect.peer,
                    family="vars", iteration=effect.iteration,
                )
        elif kind is ComputeBegin:
            if san is not None:
                san.on_compute_begin(
                    rank, effect.iteration, effect.verified_upto, effect.fw
                )
            if log is not None:
                log.record("compute", rank, now, iteration=effect.iteration)
        elif kind is Verified:
            if san is not None:
                san.on_verify(rank, effect.peer, effect.iteration)
            if log is not None:
                log.record(
                    "verify", rank, now, peer=effect.peer,
                    family="vars", iteration=effect.iteration,
                )
        elif kind is Corrected:
            if log is not None:
                log.record(
                    "correct", rank, now, peer=effect.peer,
                    family="vars", iteration=effect.iteration,
                )
        elif kind is CascadeBegin:
            if san is not None:
                san.on_cascade_begin(rank, effect.iteration)
        elif kind is CascadeStep:
            if san is not None:
                san.on_cascade_step(rank, effect.iteration)
        elif kind is CascadeEnd:
            if san is not None:
                san.on_cascade_end(rank)
        elif kind is IterationDone:
            return now
        elif kind is WindowChanged:
            if san is not None:
                san.on_window_changed(
                    rank, effect.iteration, effect.old_fw, effect.new_fw,
                    effect.min_fw, effect.max_fw,
                )
            if log is not None:
                log.record(
                    "window", rank, now, peer=effect.new_fw,
                    iteration=effect.iteration,
                )
            if self.on_window is not None:
                self.on_window(effect)
        elif kind is FaultInjected:
            if log is not None:
                log.record(
                    "fault", rank, now, peer=effect.src,
                    family="vars", iteration=effect.iteration,
                )
        elif kind is Retransmit:
            if san is not None:
                san.on_retransmit(rank, effect.peer, effect.seq,
                                  effect.attempt, effect.max_attempts)
            if log is not None:
                log.record(
                    "retransmit", rank, now, peer=effect.peer,
                    family="vars", iteration=effect.seq,
                )
        elif kind is Degraded:
            if log is not None:
                log.record(
                    "degraded", rank, now, peer=int(effect.active),
                    iteration=effect.iteration,
                )
        return None
