"""Per-process worker: one rank's engine driven over real pipes.

Each worker owns one rank's block and a duplex
:class:`multiprocessing.connection.Connection` to every other rank.
The speculative protocol itself is :class:`repro.engine.SpecEngine` —
the same state machine the DES and loopback backends run — interpreted
against the pipes by
:class:`~repro.engine.pipes.PipeTransport`: injected latency is
enforced at the receiver via per-message delivery stamps, sends carry
per-destination sequence numbers (restoring FIFO-with-delay order
under jitter — the SPF111 fix), and blocking receives park in
``select`` rather than sleep-polling.

Because the engine owns the cascade machinery, every forward window
the simulator supports (including FW >= 2 and ``cascade="none"``) now
runs on real processes too.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from repro.core.results import SpecStats
from repro.engine.core import SpecEngine, topology
from repro.engine.pipes import PipeTransport
from repro.engine.transport import drive
from repro.faults import FaultPlan, FaultyTransport
from repro.policy import WindowPolicy
from repro.trace.events import TraceEvent


@dataclass
class WorkerReport:
    """What a worker sends back to the parent when it finishes."""

    rank: int
    final_block: Any
    phase_seconds: dict[str, float]
    spec_made: int = 0
    spec_accepted: int = 0
    spec_rejected: int = 0
    recomputes: int = 0
    checks: int = 0
    tainted_sends: int = 0
    wall_seconds: float = 0.0
    error: Optional[str] = None
    #: Protocol trace events (populated when the runner records them);
    #: times are wall seconds relative to the worker's protocol start.
    events: list[TraceEvent] = field(default_factory=list)
    #: (iteration, new_fw) window-policy decisions on this rank.
    window_history: list[tuple[int, int]] = field(default_factory=list)
    #: The FW this rank's engine ended the run with.
    final_fw: int = 0
    #: Retransmit requests this rank's engine issued.
    retransmits: int = 0
    #: Duplicate deliveries the engine suppressed by Send.seq.
    dups_suppressed: int = 0
    #: Injected-fault accounting (:meth:`FaultSummary.to_dict`) when
    #: the worker ran under a fault plan; None on clean runs.
    fault_summary: Optional[dict] = None


def worker_main(
    rank: int,
    program: Any,
    fw: int,
    conns: Mapping[int, Any],
    result_conn: Any,
    latency: float,
    jitter: float,
    seed: int,
    start_barrier: Any,
    record_events: bool = False,
    cascade: str = "recompute",
    sanitize: Optional[bool] = None,
    window_policy: Optional[WindowPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    hist_cap: Optional[int] = None,
) -> None:
    """Entry point executed inside each worker process."""
    try:
        report = _run_protocol(
            rank, program, fw, conns, latency, jitter, seed, start_barrier,
            record_events=record_events, cascade=cascade, sanitize=sanitize,
            window_policy=window_policy, fault_plan=fault_plan,
            hist_cap=hist_cap,
        )
    except (KeyboardInterrupt, SystemExit):  # pragma: no cover - interactive
        # Never convert interpreter-shutdown signals into a report: the
        # parent interprets worker death directly.
        raise
    except Exception as exc:  # pragma: no cover - surfaced to the parent
        # Preserve the full original traceback in the surfaced error so
        # the parent's re-raise points at the real failure site.
        report = WorkerReport(
            rank=rank,
            final_block=None,
            phase_seconds={},
            error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
        )
    result_conn.send(report)
    result_conn.close()


def _run_protocol(
    rank, program, fw, conns, latency, jitter, seed, start_barrier,
    record_events=False, cascade="recompute", sanitize=None,
    window_policy=None, fault_plan=None, hist_cap=None,
):
    """Build this rank's engine + transport and run to completion."""
    needed, audience = topology(program)
    stats = SpecStats(rank=rank)
    retry_kwargs = (
        {}
        if fault_plan is None
        else {
            "max_retries": fault_plan.max_retries,
            "retry_backoff": fault_plan.retry_backoff,
        }
    )
    engine = SpecEngine(
        program, rank, needed[rank], audience[rank],
        fw=fw, cascade=cascade, stats=stats, policy=window_policy,
        hist_cap=hist_cap, **retry_kwargs,
    )
    transport = PipeTransport(
        rank, conns,
        latency=latency, jitter=jitter,
        rng=np.random.default_rng(seed * 1000 + rank),
        record_events=record_events,
        sanitize=sanitize,
    )
    if fault_plan is not None:
        # Receive-side injection downstream of the pipe's wire
        # bookkeeping: the wire stays gap-free, the engine sees chaos.
        transport = FaultyTransport(transport, fault_plan)
    # Same sanitizer instance in the engine's buffer-occupancy seat.
    engine.sanitizer = transport.sanitizer

    start_barrier.wait()
    transport.start()  # event times / wall_seconds relative to here
    final = drive(engine, transport)
    transport.finish()  # end-of-run sanitizer seat (eventual verification)
    return WorkerReport(
        rank=rank,
        final_block=final,
        phase_seconds=transport.phase_seconds,
        spec_made=stats.spec_made,
        spec_accepted=stats.spec_accepted,
        spec_rejected=stats.spec_rejected,
        recomputes=stats.recomputes,
        checks=stats.checks,
        tainted_sends=stats.tainted_sends,
        wall_seconds=transport.wall_seconds,
        events=transport.events,
        window_history=[(0, fw)] + transport.window_events,
        final_fw=engine.fw,
        retransmits=stats.retransmits,
        dups_suppressed=stats.dups_suppressed,
        fault_summary=(
            transport.injector.summary().to_dict()
            if fault_plan is not None
            else None
        ),
    )
