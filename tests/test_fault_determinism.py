"""Fault-determinism guarantees (satellite of the specfault layer).

Two contracts:

1. Same seed + same FaultPlan => byte-identical EventLog on the
   loopback backend (its clock is the deterministic scheduler round
   counter, so even event times replay exactly).
2. Whenever every dropped message is eventually retransmitted, the
   chaos run's physics are *identical* to the fault-free run — checked
   property-style over a grid of plan seeds and loss rates under the
   deterministic contract fw=1 + cascade="recompute" (every send fully
   verified before it leaves, so timing shifts cannot leak into
   payloads).
"""

import numpy as np
import pytest

from repro import RunConfig, run
from repro.faults import EdgeFault, FaultPlan, RankFault
from repro.faults.injector import _roll

from tests.toy_programs import CoupledIncrement


def _program(p=4, iterations=12):
    return CoupledIncrement(p, iterations, coupling=0.05)


def _mixed_plan(seed, rate=0.15):
    return FaultPlan(
        seed=seed,
        edges=(
            EdgeFault(kind="drop", rate=rate),
            EdgeFault(kind="duplicate", rate=rate / 2),
            EdgeFault(kind="reorder", rate=rate),
        ),
        ranks=(RankFault(rank=1, slowdown=2.0),),
    )


def _loopback_chaos(plan, prog=None, record_trace=False):
    prog = prog if prog is not None else _program()
    return run(RunConfig(prog, backend="loopback", fw=1,
                         cascade="recompute", fault_plan=plan,
                         record_trace=record_trace))


def _log_bytes(report, tmp_path, name):
    path = tmp_path / name
    report.event_log.save(path)
    return path.read_bytes()


@pytest.mark.parametrize("key, expected", [
    ((0, 0, 0, 1, 0), 0.4847377654194767),
    ((1, 0, 1, 0, 3), 0.0773195024471617),
    ((7, 2, 3, 1, 41), 0.11082949407491711),
    ((2**40 + 7, 1, 15, 14, 999), 0.5866803044704725),
])
def test_roll_values_are_pinned(key, expected):
    """``_roll(seed, fault_index, src, dst, seq)`` is the whole fault
    schedule; where its hash comes from may move, its values may not."""
    assert _roll(*key) == expected


def test_same_seed_same_plan_byte_identical_log(tmp_path):
    plan = _mixed_plan(seed=7)
    first = _loopback_chaos(plan, record_trace=True)
    second = _loopback_chaos(plan, record_trace=True)
    assert first.fault_summary["total_injected"] >= 1
    assert (_log_bytes(first, tmp_path, "a.jsonl")
            == _log_bytes(second, tmp_path, "b.jsonl"))


def test_different_plan_seed_perturbs_the_run(tmp_path):
    # Decisions are hashes of (plan.seed, ...): reseeding the plan must
    # move the faults.  Compare the full trace, not just the counts —
    # two seeds can coincide on totals but not on the event stream.
    logs = {
        seed: _log_bytes(
            _loopback_chaos(_mixed_plan(seed=seed), record_trace=True),
            tmp_path, f"seed{seed}.jsonl",
        )
        for seed in (0, 1, 2)
    }
    assert len(set(logs.values())) > 1


@pytest.mark.parametrize("plan_seed", [0, 1, 2])
@pytest.mark.parametrize("rate", [0.05, 0.2])
def test_recovered_chaos_physics_identical_to_fault_free(plan_seed, rate):
    prog = _program()
    clean = run(RunConfig(prog, backend="loopback", fw=1,
                          cascade="recompute"))
    report = _loopback_chaos(_mixed_plan(seed=plan_seed, rate=rate), prog)
    # Precondition of the property: every loss was eventually healed.
    assert report.fault_summary["outstanding_losses"] == 0
    for rank in range(prog.nprocs):
        np.testing.assert_array_equal(
            report.results[rank], clean.results[rank],
            err_msg=f"plan_seed={plan_seed} rate={rate} rank={rank}",
        )


def test_injected_counts_identical_across_backends():
    # The plan's decisions depend only on (seed, fault, src, dst, seq),
    # never on the backend's clock — every backend must inject the
    # exact same multiset of faults.
    plan = _mixed_plan(seed=3)
    prog = _program()
    by_backend = {}
    for backend in ("des", "loopback", "mp"):
        report = run(RunConfig(prog, backend=backend, fw=1,
                               cascade="recompute", fault_plan=plan))
        by_backend[backend] = report.fault_summary["injected"]
    assert by_backend["des"] == by_backend["loopback"] == by_backend["mp"]
    assert sum(by_backend["des"].values()) >= 1
