"""Parent-side orchestration for the multiprocessing backend.

:class:`MPRunner` forks one worker per rank over a full mesh of pipes
and waits on every worker's result pipe at once.  A failed run ends at
its first failure report: the exception a worker sent, or EOF from one
that died without sending any.  The start barrier is aborted, the
workers still running are terminated and the worker's exception is
re-raised — a failure surfaces as soon as it happens, with its own
type, no timer and no orphan process.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from multiprocessing import connection as mp_connection
from typing import Any, Optional

from repro.core.program import SyncIterativeProgram
from repro.core.results import RunReport, assemble_report
from repro.engine.pipes import close_mesh, full_mesh
from repro.faults import FaultPlan
from repro.parallel.worker import WorkerReport, worker_main
from repro.policy import CascadePolicy, WindowPolicy
from repro.trace.events import EventLog


class MPRunner:
    """Run a program on real OS processes with injected message latency.

    Parameters
    ----------
    program:
        The application; must be picklable (all bundled apps are).
    fw:
        Forward window: 0 (blocking) or any depth >= 1 (speculative).
        The engine owns the cascade machinery, so FW >= 2 runs on real
        processes exactly as in the simulator.
    cascade:
        Correction cascade policy, ``"recompute"`` (default) or
        ``"none"`` (see :class:`~repro.core.driver.SpeculativeDriver`).
    latency:
        Injected one-way message delay in wall seconds (0 = pipes at
        native speed).
    jitter:
        Log-normal sigma multiplying the injected latency per message.
    seed:
        Seed for the per-worker jitter streams.
    start_method:
        ``multiprocessing`` start method; ``"fork"`` (default on Linux)
        avoids re-importing the world per worker.
    record_events:
        Record per-worker protocol trace events
        (:class:`~repro.trace.events.TraceEvent`), merged afterwards
        into the report's ``event_log`` — the input for ``repro analyze
        --trace`` replay.  Event times are relative to each worker's
        protocol start (the post-barrier instant), so cross-rank
        comparisons should rely on the happens-before structure
        (``seq`` + message matching), not the clock.
    sanitize:
        Arm the per-worker runtime
        :class:`~repro.analysis.sanitizer.ProtocolSanitizer`; ``None``
        (default) defers to ``REPRO_SANITIZE`` (inherited by workers).
        A violation in any worker surfaces as that worker's error.
    window_policy:
        Optional :class:`~repro.policy.WindowPolicy` template (must be
        picklable); each worker's engine spawns a private copy, so
        ranks adapt their forward windows independently on real wall
        clocks.  Decisions come back in the report's ``window_history``.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`; each worker wraps
        its engine with :func:`~repro.faults.wrap_engine` like every
        other backend, so the plan's seeded
        drops/duplicates/delays/reorders, straggler slowdowns and
        crashes inject on the receive path while the engine's
        retransmit layer recovers.  The plan's clock is receive polls;
        a blocked poll lasts at most one wall second here.  The merged
        receipts come back in the report's ``fault_summary``.
    hist_cap:
        Backward-window ring capacity of every worker's engine (default
        from the program's speculator).
    """

    def __init__(
        self,
        program: SyncIterativeProgram,
        fw: int = 1,
        latency: float = 0.0,
        jitter: float = 0.0,
        seed: int = 0,
        start_method: Optional[str] = None,
        record_events: bool = False,
        cascade: "CascadePolicy | str" = CascadePolicy.RECOMPUTE,
        sanitize: Optional[bool] = None,
        window_policy: Optional[WindowPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        hist_cap: Optional[int] = None,
    ) -> None:
        if fw < 0:
            raise ValueError("fw must be >= 0")
        if latency < 0 or jitter < 0:
            raise ValueError("latency and jitter must be >= 0")
        self.program = program
        self.fw = fw
        self.cascade = CascadePolicy.coerce(cascade)
        self.window_policy = window_policy
        self.fault_plan = fault_plan
        self.hist_cap = hist_cap
        self.latency = latency
        self.jitter = jitter
        self.seed = seed
        self.record_events = record_events
        self.sanitize = sanitize
        self._ctx = mp.get_context(start_method) if start_method else mp.get_context()

    def run(self, timeout: float = 300.0) -> RunReport:
        """Execute to completion; raises on worker failure or timeout.

        The report is in wall seconds since the start barrier;
        ``wall_seconds`` is the longest worker's.  A worker's exception
        is re-raised as itself, chained from a ``RuntimeError`` with its
        rank and worker traceback.
        """
        p = self.program.nprocs
        ctx = self._ctx

        # Full mesh of duplex pipes: mesh[i][j] is i's endpoint to j.
        mesh = full_mesh(ctx, p)

        knobs = dict(
            fw=self.fw, latency=self.latency, jitter=self.jitter,
            seed=self.seed, record_events=self.record_events,
            cascade=self.cascade, sanitize=self.sanitize,
            window_policy=self.window_policy, fault_plan=self.fault_plan,
            hist_cap=self.hist_cap,
        )
        result_conns = []
        barrier = ctx.Barrier(p)
        workers = []
        for rank in range(p):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            result_conns.append(parent_conn)
            proc = ctx.Process(
                target=worker_main,
                args=(rank, self.program, mesh[rank], child_conn, barrier),
                kwargs=knobs,
                daemon=True,
            )
            workers.append(proc)
        for proc in workers:
            proc.start()
        # The children inherited their mesh endpoints on fork; the
        # parent's copies would otherwise keep every pipe open even
        # after a worker dies.
        close_mesh(
            conn for row in mesh.values() for conn in row.values()
        )

        # Multiplex over all result pipes rather than polling rank 0
        # first: a rank that fails *before* the start barrier reports
        # immediately while its peers are still parked at the barrier,
        # and waiting rank-by-rank would burn the full timeout before
        # noticing.  The first error report ends the run (a worker that
        # died without one reads as EOF, which counts): its peers may be
        # parked at the barrier or blocked on a receive from the failed
        # rank, and nothing would ever wake them.
        reports: list[WorkerReport] = []
        pending: dict[Any, int] = {
            conn: rank for rank, conn in enumerate(result_conns)
        }
        deadline = time.monotonic() + timeout
        failure: Optional[WorkerReport] = None
        try:
            while pending and failure is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"worker(s) {sorted(pending.values())} did not "
                        f"report within {timeout}s"
                    )
                for conn in mp_connection.wait(list(pending), timeout=remaining):
                    rank = pending.pop(conn)
                    try:
                        report = conn.recv()
                    except EOFError:
                        report = WorkerReport(rank, error=RuntimeError(
                            f"rank {rank}: worker process died without reporting"
                        ))
                    if report.error is not None:
                        failure = report
                        break
                    reports.append(report)
        finally:
            if pending:
                # Ended early (a failure, the timeout or an interrupt):
                # unpark ranks at the barrier and stop the rest.
                barrier.abort()
                for proc in workers:
                    proc.terminate()
            for proc in workers:
                proc.join(timeout=10)
        if failure is not None:
            raise failure.error from RuntimeError(
                f"rank {failure.rank} failed in its worker process (ranks "
                f"{sorted(pending.values())} stopped after it)\n"
                f"{failure.error_traceback}"
            )
        reports.sort(key=lambda r: r.rank)
        log = None
        if self.record_events:
            log = EventLog()
            for r in reports:
                # One-shot post-run merge of the workers' own (finite)
                # logs, not a long-running protocol buffer.
                log.extend(r.events)  # specbound: disable=SPB406
        return assemble_report(
            "mp",
            {r.rank: r.final_block for r in reports},
            [r.trace for r in reports],
            [r.stats for r in reports],
            {r.rank: r.window_history for r in reports},
            max(r.wall_seconds for r in reports),
            None if self.fault_plan is None else [r.fault_summary for r in reports],
            fw=self.fw, iterations=self.program.iterations, event_log=log,
        )
