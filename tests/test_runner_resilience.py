"""MPRunner failure handling: a dying worker must not strand the run.

A failed run ends at its first failure report, so every case below
surfaces in well under two seconds:

* pre-barrier failure — a rank that raises while building its engine
  reports immediately; the runner aborts the start barrier so parked
  peers fail fast instead of waiting out the full timeout.
* post-barrier failure — a rank that dies mid-protocol leaves peers
  blocked on receives that will never complete; the runner reports
  them as stopped and terminates them instead of waiting on them.
* a worker killed without a report — its result pipe reads EOF, which
  counts as its failure report.
"""

import multiprocessing
import os
import time

import pytest

from repro.faults import FaultPlan, RankFault
from repro.parallel import MPRunner

from tests.toy_programs import CoupledIncrement


class ExplodingInit(CoupledIncrement):
    """Rank 1 dies before the start barrier (engine construction)."""

    def initial_block(self, rank):
        if rank == 1:
            raise RuntimeError("boom in initial_block")
        return super().initial_block(rank)


class ExplodingCompute(CoupledIncrement):
    """Rank 0 dies mid-protocol, after the start barrier."""

    def compute(self, rank, inputs, t):
        if rank == 0 and t == 2:
            raise RuntimeError("boom in compute")
        return super().compute(rank, inputs, t)


class KilledCompute(CoupledIncrement):
    """Rank 0's process exits mid-protocol without sending a report."""

    def compute(self, rank, inputs, t):
        if rank == 0 and t == 2:
            os._exit(3)
        return super().compute(rank, inputs, t)


def _assert_no_orphans():
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return
        time.sleep(0.05)
    alive = multiprocessing.active_children()
    assert not alive, f"worker processes left running: {alive}"


def test_pre_barrier_failure_raises_fast():
    runner = MPRunner(ExplodingInit(2, iterations=6), fw=1)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="boom in initial_block"):
        runner.run(timeout=60.0)
    # Far below the run timeout: the error surfaced via the aborted
    # barrier, not by waiting the healthy rank out.
    assert time.monotonic() - start < 30.0
    _assert_no_orphans()


def test_post_barrier_failure_bounded_by_grace():
    runner = MPRunner(ExplodingCompute(2, iterations=8), fw=1)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="boom in compute"):
        runner.run(timeout=120.0)
    # Ended by rank 0's report: rank 1, blocked on a receive from it,
    # is stopped rather than waited for.
    assert time.monotonic() - start < 2.0
    _assert_no_orphans()


def test_worker_killed_without_report_surfaces_fast():
    runner = MPRunner(KilledCompute(2, iterations=8), fw=1)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="died without reporting"):
        runner.run(timeout=120.0)
    assert time.monotonic() - start < 2.0
    _assert_no_orphans()


def test_injected_crash_surfaces_within_grace():
    # A planned crash is raised by the fault stage inside the worker's
    # engine stream; it must come out of MPRunner like any other
    # post-barrier failure: named, at once, no orphans.
    plan = FaultPlan(ranks=(RankFault(rank=1, crash_at=3),))
    runner = MPRunner(CoupledIncrement(2, iterations=8), fw=1, fault_plan=plan)
    start = time.monotonic()
    with pytest.raises(
        RuntimeError, match="InjectedCrash: rank 1: planned crash at iteration 3"
    ):
        runner.run(timeout=120.0)
    assert time.monotonic() - start < 2.0
    _assert_no_orphans()
