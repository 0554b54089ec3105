"""mp backend failure handling: a dying worker must not strand the run.

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

The failure keeps its type: the parent re-raises the worker's own
exception, so it reads as it does on the in-process backends.
"""

import multiprocessing
import os
import time

import pytest

from repro.api import RunConfig, run
from repro.engine.core import RetransmitExhausted
from repro.engine.sanitizer import ProtocolViolation
from repro.faults import FaultPlan, InjectedCrash, RankFault

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


class Unpicklable(Exception):
    """Holds a lambda, so it cannot cross the result pipe."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


class RaisingCompute(CoupledIncrement):
    """Rank 1 raises ``failure`` (a type and its arguments) at t = 2."""

    def __init__(self, nprocs, iterations, failure, **kwargs):
        super().__init__(nprocs, iterations, **kwargs)
        self.failure = failure

    def compute(self, rank, inputs, t):
        if rank == 1 and t == 2:
            exc_type, args = self.failure
            raise exc_type(*args)
        return super().compute(rank, inputs, t)


FAILURES = [
    (RuntimeError, ("boom in compute",)),
    (ValueError, ("bad value in compute",)),
    (InjectedCrash, ("rank 1: planned crash at iteration 2",)),
    (RetransmitExhausted, ("rank 1: dropped message(s) cannot be recovered",)),
    (ProtocolViolation, ("forward-window-bound", "ahead by 2", ["spec t=3"])),
    (Unpicklable, ("cannot be sent",)),
]


def _assert_no_orphans():
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return
        time.sleep(0.05)
    alive = multiprocessing.active_children()
    assert not alive, f"worker processes left running: {alive}"


def test_pre_barrier_failure_raises_fast():
    config = RunConfig(ExplodingInit(2, iterations=6), backend="mp", fw=1, timeout=60.0)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="boom in initial_block"):
        run(config)
    # Far below the run timeout: the error surfaced via the aborted
    # barrier, not by waiting the healthy rank out.
    assert time.monotonic() - start < 30.0
    _assert_no_orphans()


def test_post_barrier_failure_bounded_by_grace():
    config = RunConfig(ExplodingCompute(2, iterations=8), backend="mp", fw=1,
                       timeout=120.0)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="boom in compute"):
        run(config)
    # Ended by rank 0's report: rank 1, blocked on a receive from it,
    # is stopped rather than waited for.
    assert time.monotonic() - start < 2.0
    _assert_no_orphans()


def test_worker_killed_without_report_surfaces_fast():
    config = RunConfig(KilledCompute(2, iterations=8), backend="mp", fw=1,
                       timeout=120.0)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="died without reporting"):
        run(config)
    assert time.monotonic() - start < 2.0
    _assert_no_orphans()


def test_injected_crash_surfaces_within_grace():
    # A planned crash is raised by the fault stage inside the worker's
    # engine stream; it must come out of the mp backend like any other
    # post-barrier failure: named, at once, no orphans.
    plan = FaultPlan(ranks=(RankFault(rank=1, crash_at=3),))
    config = RunConfig(CoupledIncrement(2, iterations=8), backend="mp", fw=1,
                       fault_plan=plan, timeout=120.0)
    start = time.monotonic()
    with pytest.raises(InjectedCrash, match="rank 1: planned crash at iteration 3"):
        run(config)
    assert time.monotonic() - start < 2.0
    _assert_no_orphans()


@pytest.mark.parametrize(
    "exc_type, args", FAILURES, ids=[exc_type.__name__ for exc_type, _ in FAILURES]
)
def test_worker_failure_keeps_its_type(exc_type, args):
    program = RaisingCompute(2, iterations=8, failure=(exc_type, args))
    with pytest.raises(exc_type) as local:
        run(RunConfig(program, backend="loopback", fw=1))
    start = time.monotonic()
    with pytest.raises(Exception) as remote:
        run(RunConfig(program, backend="mp", fw=1, timeout=120.0))
    assert time.monotonic() - start < 2.0
    if exc_type is Unpicklable:
        assert type(remote.value) is RuntimeError
        assert str(remote.value) == f"Unpicklable: {local.value}"
    else:
        assert type(remote.value) is exc_type
        assert str(remote.value) == str(local.value)
    cause = remote.value.__cause__
    assert isinstance(cause, RuntimeError)
    assert str(cause).startswith("rank 1 failed in its worker process")
    assert "Traceback (most recent call last)" in str(cause)
    assert "in compute" in str(cause)
    _assert_no_orphans()

