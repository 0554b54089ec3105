"""A sans-I/O speculative-protocol engine with pluggable transports.

The package splits the paper's protocol (Fig. 3) from its media:

* :mod:`repro.engine.core` — :class:`SpecEngine` and
  :class:`ReceiveDrivenEngine`, pure generator state machines that
  *yield* effects (:mod:`repro.engine.events`) and never touch a
  socket, a pipe, or the simulator;
* :mod:`repro.engine.transport` — the :class:`Transport` seam and the
  shared synchronous interpreter :func:`drive`;
* :mod:`repro.engine.observer` — the one table every backend feeds its
  notification effects through (sanitizer hooks + trace records);
* :mod:`repro.engine.des_transport` — effects on the discrete event
  simulator (``repro.vm`` over ``repro.netsim``);
* :mod:`repro.engine.loopback` — in-process FIFO queues with a
  deterministic scheduler, for tests and toys;
* :mod:`repro.engine.pipes` — real ``multiprocessing`` pipes with
  injected latency; sequenced, FIFO-restored delivery (the SPF111
  fix) and no busy-wait blocking.

Every backend :func:`repro.api.run` reaches — the simulator, the
loopback scheduler and the multiprocessing workers
(:mod:`repro.parallel.worker`) — runs the engines in this package,
built by one factory (:func:`repro.api.rank_engine`);
speculate/verify/correct logic exists exactly once.
"""

from __future__ import annotations

from repro.engine.core import (
    ReceiveDrivenEngine,
    SpecEngine,
    default_hist_cap,
    topology,
)
from repro.engine.des_transport import DESTransport
from repro.engine.events import (
    VARS,
    Arrival,
    CascadeBegin,
    CascadeEnd,
    CascadeStep,
    Charge,
    ComputeBegin,
    Corrected,
    Effect,
    IterationDone,
    Recv,
    Send,
    Speculated,
    TryRecv,
    Verified,
)
from repro.engine.loopback import LoopbackDeadlock, LoopbackRunner
from repro.engine.pipes import PipeTransport, close_mesh, full_mesh
from repro.engine.ring import HistoryRing, OutOfOrderArrival
from repro.engine.transport import Transport, TransportError, drive

__all__ = [
    "VARS",
    "Arrival",
    "CascadeBegin",
    "CascadeEnd",
    "CascadeStep",
    "Charge",
    "ComputeBegin",
    "Corrected",
    "DESTransport",
    "Effect",
    "HistoryRing",
    "IterationDone",
    "LoopbackDeadlock",
    "LoopbackRunner",
    "OutOfOrderArrival",
    "PipeTransport",
    "ReceiveDrivenEngine",
    "Recv",
    "Send",
    "SpecEngine",
    "Speculated",
    "Transport",
    "TransportError",
    "TryRecv",
    "Verified",
    "close_mesh",
    "default_hist_cap",
    "drive",
    "full_mesh",
    "topology",
]
