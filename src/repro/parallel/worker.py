"""Per-process worker: one rank's engine driven over real pipes.

Each worker owns one rank's block and a duplex
:class:`multiprocessing.connection.Connection` to every other rank.
It receives the run's :class:`~repro.api.RunConfig` and builds its
rank's engine with :func:`~repro.api.rank_engine`, as the DES and
loopback backends do — the same :class:`repro.engine.SpecEngine` (or
the Fig. 7 baseline), in the same fault-plan stage — and interprets
it against the pipes with :class:`~repro.engine.pipes.PipeTransport`:
injected latency — the run's :func:`~repro.netsim.latency.latency_model`,
on a per-rank seed — is enforced at the receiver via per-message delivery
stamps, sends carry per-destination sequence numbers (restoring
FIFO-with-delay order under jitter — the SPF111 fix), and blocking
receives park in ``select`` rather than sleep-polling.

Because the engine owns the cascade machinery, every forward window
the simulator supports (including FW >= 2 and ``cascade="none"``)
runs on real processes too.
"""

from __future__ import annotations

import pickle
import traceback
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.api import RunConfig, rank_engine
from repro.core.results import SpecStats
from repro.engine.core import topology
from repro.engine.pipes import PipeTransport
from repro.engine.transport import drive
from repro.faults import FaultSummary
from repro.netsim.latency import latency_model
from repro.trace.events import TraceEvent
from repro.trace.phases import PhaseTrace


@dataclass
class WorkerReport:
    """What a worker sends back to the parent when it finishes."""

    rank: int
    final_block: Any = None
    #: Phase rows in wall seconds since the protocol start (None on an
    #: error report).
    trace: Optional[PhaseTrace] = None
    #: The rank's protocol counters, whole (None on an error report).
    stats: Optional[SpecStats] = None
    wall_seconds: float = 0.0
    #: The exception that ended the rank, and its worker-side traceback.
    error: Optional[Exception] = None
    error_traceback: str = ""
    #: Protocol trace events (populated when the runner records them);
    #: times are wall seconds relative to the worker's protocol start.
    events: list[TraceEvent] = field(default_factory=list)
    #: (iteration, fw) trajectory: the initial window, then the seated
    #: window policy's decisions on this rank.
    window_history: list[tuple[int, int]] = field(default_factory=list)
    #: Injected-fault receipt when the worker ran under a fault plan;
    #: None on clean runs.
    fault_summary: Optional[FaultSummary] = None


def worker_main(
    rank: int,
    config: RunConfig,
    conns: Mapping[int, Any],
    result_conn: Any,
    start_barrier: Any,
) -> None:
    """Entry point executed inside each worker process: run rank
    ``rank`` of ``config`` and send its :class:`WorkerReport` back."""
    try:
        report = _run_protocol(rank, config, conns, start_barrier)
    except (KeyboardInterrupt, SystemExit):  # pragma: no cover - interactive
        # Never convert interpreter-shutdown signals into a report: the
        # parent interprets worker death directly.
        raise
    except Exception as exc:  # pragma: no cover - surfaced to the parent
        report = WorkerReport(
            rank, error=_portable(exc), error_traceback=traceback.format_exc()
        )
    result_conn.send(report)
    result_conn.close()


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives the pipe to the parent unchanged, else a
    ``RuntimeError`` that names its type."""
    try:
        copy = pickle.loads(pickle.dumps(exc))
    except (pickle.PickleError, TypeError, AttributeError):
        copy = None
    if type(copy) is type(exc) and str(copy) == str(exc):
        return exc
    return RuntimeError(f"{type(exc).__name__}: {exc}")


def _run_protocol(
    rank: int, config: RunConfig, conns: Mapping[int, Any], start_barrier: Any
) -> WorkerReport:
    """Build this rank's engine + transport and run to completion."""
    transport = PipeTransport(
        rank, conns,
        latency=latency_model(config.latency, config.jitter,
                              seed=config.seed * 1000 + rank),
        record_events=config.record_trace,
        sanitize=config.sanitize,
    )
    engine = rank_engine(
        config, rank, topology(config.program), transport.sanitizer
    )
    transport.observer.begin(engine)

    start_barrier.wait()
    transport.start()  # event times / wall_seconds relative to here
    final = drive(engine, transport)
    transport.finish()  # end-of-run sanitizer seat (eventual verification)
    return WorkerReport(
        rank=rank,
        final_block=final,
        trace=transport.trace,
        stats=engine.stats,
        wall_seconds=transport.wall_seconds,
        events=transport.events,
        window_history=transport.observer.window_history,
        fault_summary=(
            engine.injector.summary() if config.fault_plan is not None
            else None
        ),
    )
