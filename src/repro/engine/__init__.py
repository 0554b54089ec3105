"""A sans-I/O speculative-protocol engine with pluggable transports.

The package splits the paper's protocol (Fig. 3) from its media:

* :mod:`repro.engine.core` — :class:`SpecEngine` and
  :class:`ReceiveDrivenEngine`, pure generator state machines that
  *yield* effects (:mod:`repro.engine.events`) and never touch a
  socket, a pipe, or the simulator;
* :mod:`repro.engine.transport` — the :class:`Transport` seam and the
  shared synchronous interpreter :func:`drive`;
* :mod:`repro.engine.observer` — the one seat an engine reports its
  protocol steps to (sanitizer hooks + trace records);
* :mod:`repro.engine.sanitizer` — the opt-in runtime
  :class:`~repro.engine.sanitizer.ProtocolSanitizer`
  (``REPRO_SANITIZE=1``), the runtime seat of the invariant registry
  :mod:`repro.engine.invariants`;
* :mod:`repro.engine.loopback` — the in-process executor, under a
  deterministic scheduler (:class:`LoopbackRunner`: tests, toys, the
  model checker) or on the simulator's calendar (:class:`CalendarRunner`);
* :mod:`repro.engine.pipes` — real ``multiprocessing`` pipes with
  injected latency; sequenced, FIFO-restored delivery (the SPF111
  fix) and no busy-wait blocking.  This package does not re-export
  it: import :class:`~repro.engine.pipes.PipeTransport` and the mesh
  helpers from :mod:`repro.engine.pipes`, so that an in-process run
  loads no ``multiprocessing``, ``socket`` or ``subprocess``.

Every backend :func:`repro.api.run` reaches — the simulator, the
loopback scheduler and the multiprocessing workers
(:mod:`repro.parallel.worker`) — runs the engines in this package,
built by one factory (:func:`repro.api.rank_engine`);
speculate/verify/correct logic exists exactly once.

The runtime imports no analyzer: :mod:`repro.analysis` may import this
package, never the reverse, so a run loads none of the static
analysis families.
"""

from __future__ import annotations

from repro.engine.core import (
    ReceiveDrivenEngine,
    SpecEngine,
    default_hist_cap,
    topology,
)
from repro.engine.events import (
    VARS,
    Arrival,
    Charge,
    Effect,
    IterationDone,
    Recv,
    Send,
    TryRecv,
)
from repro.engine.loopback import CalendarRunner, LoopbackDeadlock, LoopbackRunner
from repro.engine.observer import RankObserver
from repro.engine.ring import HistoryRing, OutOfOrderArrival
from repro.engine.transport import Transport, TransportError, drive

__all__ = [
    "VARS",
    "Arrival",
    "CalendarRunner",
    "Charge",
    "Effect",
    "HistoryRing",
    "IterationDone",
    "LoopbackDeadlock",
    "LoopbackRunner",
    "OutOfOrderArrival",
    "RankObserver",
    "ReceiveDrivenEngine",
    "Recv",
    "Send",
    "SpecEngine",
    "Transport",
    "TransportError",
    "TryRecv",
    "default_hist_cap",
    "drive",
    "topology",
]
