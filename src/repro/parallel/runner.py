"""Parent-side orchestration for the multiprocessing backend.

:func:`_start_mp` forks one worker per rank over a full mesh of pipes,
hands each the run's :class:`~repro.api.RunConfig` and waits on every
worker's result pipe at once.  A failed run ends at its first failure
report: the exception a worker sent, or EOF from one that died without
sending any.  The start barrier is aborted, the workers still running
are terminated and the worker's exception is re-raised — a failure
surfaces as soon as it happens, with its own type, no timer and no
orphan process.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from multiprocessing import connection as mp_connection
from typing import TYPE_CHECKING, Any, Optional

from repro.core.results import RunReport, assemble_report
from repro.engine.pipes import close_mesh, full_mesh
from repro.parallel.worker import WorkerReport, worker_main
from repro.trace.events import EventLog

if TYPE_CHECKING:
    from repro.api import RunConfig


def _start_mp(config: RunConfig) -> RunReport:
    """Run ``config`` on real OS processes, one per rank; raises on
    worker failure or timeout.

    The report is in wall seconds since the start barrier;
    ``wall_seconds`` is the longest worker's.  A worker's exception is
    re-raised as itself, chained from a ``RuntimeError`` with its rank
    and worker traceback; a sanitizer violation is such an exception.
    Trace event times are relative to each worker's protocol start, so
    cross-rank comparisons should rely on the happens-before structure
    (``seq`` + message matching), not the clock.  A fault plan's clock
    is receive polls, and a blocked poll lasts at most one wall second
    here.
    """
    p = config.program.nprocs
    ctx = mp.get_context()

    # Full mesh of duplex pipes: mesh[i][j] is i's endpoint to j.
    mesh = full_mesh(ctx, p)

    result_conns = []
    barrier = ctx.Barrier(p)
    workers = []
    for rank in range(p):
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        result_conns.append(parent_conn)
        proc = ctx.Process(
            target=worker_main,
            args=(rank, config, mesh[rank], child_conn, barrier),
            daemon=True,
        )
        workers.append(proc)
    for proc in workers:
        proc.start()
    # The children inherited their mesh endpoints on fork; the
    # parent's copies would otherwise keep every pipe open even
    # after a worker dies.
    close_mesh(conn for row in mesh.values() for conn in row.values())

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
    deadline = time.monotonic() + config.timeout
    failure: Optional[WorkerReport] = None
    try:
        while pending and failure is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"worker(s) {sorted(pending.values())} did not "
                    f"report within {config.timeout}s"
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
    if config.record_trace:
        log = EventLog()
        for r in reports:
            # One-shot post-run merge of the workers' own (finite)
            # logs, not a long-running protocol buffer.
            log.extend(r.events)
    return assemble_report(
        config,
        {r.rank: r.final_block for r in reports},
        [r.trace for r in reports],
        [r.stats for r in reports],
        {r.rank: r.window_history for r in reports},
        max(r.wall_seconds for r in reports),
        None if config.fault_plan is None
        else [r.fault_summary for r in reports],
        event_log=log,
    )
