"""Tests for the unified run API (`repro.api`).

One `RunConfig` + `run()` must cover all three backends with a single
report shape, and stay in exact agreement with the legacy per-backend
entry points it wraps.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro import RunConfig, RunReport, run
from repro.core import SpecStats, run_program
from repro.engine.loopback import run_loopback
from repro.faults import EdgeFault, FaultPlan, TriggerWindow
from repro.harness.toys import JumpyProgram
from repro.netsim.latency import ConstantLatency
from repro.netsim.network import DelayNetwork
from repro.platforms import wustl_1994
from repro.vm import Cluster, uniform_specs

from tests.toy_programs import CoupledIncrement


def _program(p=4, iterations=10, **kw):
    return CoupledIncrement(p, iterations, coupling=0.05, **kw)


# ------------------------------------------------------------- validation
def test_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        RunConfig(_program(), backend="smoke-signals")


def test_rejects_p_mismatch():
    with pytest.raises(ValueError, match="program.nprocs"):
        RunConfig(_program(p=4), p=8)


def test_accepts_matching_p():
    cfg = RunConfig(_program(p=4), p=4)
    assert cfg.p == 4


def test_rejects_negative_fw():
    with pytest.raises(ValueError, match="fw must be >= 0"):
        RunConfig(_program(), fw=-1)


def test_rejects_zero_bw():
    with pytest.raises(ValueError, match="bw"):
        RunConfig(_program(), bw=0)


def test_rejects_loopback_latency():
    with pytest.raises(ValueError, match="loopback backend has no clock"):
        RunConfig(_program(), backend="loopback", latency=0.1)


def test_rejects_cluster_off_des():
    cluster = Cluster(uniform_specs(4))
    with pytest.raises(ValueError, match="DES-only"):
        RunConfig(_program(), backend="loopback", cluster=cluster)


def test_rejects_cluster_plus_latency():
    cluster = Cluster(uniform_specs(4))
    with pytest.raises(ValueError, match="mutually"):
        RunConfig(_program(), backend="des", cluster=cluster, latency=0.5)


# ---------------------------------------------------------------- parity
def _des_cluster(p, latency=0.0):
    return Cluster(
        uniform_specs(p),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(latency)),
    )


def test_des_parity_with_run_program():
    prog = _program()
    legacy = run_program(prog, _des_cluster(4, 0.01), fw=1, cascade="recompute")
    report = run(RunConfig(prog, backend="des", fw=1, latency=0.01))
    assert report.wall_seconds == legacy.makespan
    for rank in range(prog.nprocs):
        np.testing.assert_array_equal(
            report.results[rank], legacy.final_blocks[rank]
        )


def test_loopback_parity_with_run_loopback():
    prog = _program()
    finals, stats, runner = run_loopback(prog, fw=1, cascade="recompute")
    report = run(RunConfig(prog, backend="loopback", fw=1))
    assert report.wall_seconds == float(runner.rounds)
    for rank in range(prog.nprocs):
        np.testing.assert_array_equal(report.results[rank], finals[rank])
    assert [s.spec_made for s in report.stats] == [s.spec_made for s in stats]


def test_all_backends_match_reference_physics():
    # fw=1 + cascade="recompute" verifies every send before it leaves,
    # so all three backends must land exactly on the serial recurrence.
    prog = _program(p=2, iterations=6)
    reference = prog.reference_run()
    for backend in ("des", "loopback", "mp"):
        report = run(
            RunConfig(prog, backend=backend, fw=1, cascade="recompute",
                      timeout=120.0)
        )
        assert report.backend == backend
        for rank, expected in reference.items():
            np.testing.assert_array_equal(report.results[rank], expected)


@pytest.mark.parametrize("backend", ["loopback", "mp"])
def test_report_counts_and_traces_the_same_things_as_des(backend):
    """Cross-backend differential on the report, DES as the reference:
    a backend is a transport and nothing else, so what a rank counts,
    what the fault receipt holds and what the trace is stamped with
    must not depend on it."""
    prog = JumpyProgram(nprocs=3, iterations=6)

    def go(on, **knobs):
        if on != "loopback" and knobs.get("fw"):
            # Give the clocked backends something to speculate across
            # (loopback's scheduler runs ahead by construction).
            knobs["latency"] = 0.02
        return run(RunConfig(prog, backend=on, timeout=120.0, **knobs))

    # Fault-free fw=0 is deterministic everywhere: every counter agrees.
    ref, got = go("des", fw=0), go(backend, fw=0)
    for rank in range(prog.nprocs):
        assert type(got.stats[rank]) is SpecStats
        assert asdict(got.stats[rank]) == asdict(ref.stats[rank])
    assert ref.stats[0].messages_sent == ref.stats[0].messages_received > 0

    # One dropped message: the same receipt keys, and the drop is in it.
    one_drop = FaultPlan(edges=(
        EdgeFault("drop", 1.0, src=1, dst=0, window=TriggerWindow(2, 3)),
    ))
    ref, got = go("des", fault_plan=one_drop), go(backend, fault_plan=one_drop)
    assert set(got.fault_summary) == set(ref.fault_summary)
    assert got.fault_summary["injected"] == ref.fault_summary["injected"]
    assert got.fault_summary["injected"] == {"drop": 1}

    # Same trace vocabulary: which kinds carry a family is the table's
    # decision, not the backend's.
    def vocabulary(report):
        return {(e.kind, e.family) for e in report.event_log}

    assert vocabulary(go(backend, fw=1, record_trace=True)) == vocabulary(
        go("des", fw=1, record_trace=True)
    )


def test_cluster_that_already_ran_is_refused():
    """A frozen RunConfig with an explicit cluster used to run twice,
    the second time on the first run's clock (9.233 then 18.466)."""
    cfg = RunConfig(JumpyProgram(nprocs=3, iterations=6), backend="des",
                    cluster=wustl_1994(3).cluster())
    run(cfg)
    with pytest.raises(ValueError, match="already run"):
        run(cfg)


# ---------------------------------------------------------- report shape
def test_report_shape_loopback():
    prog = _program()
    report = run(RunConfig(prog, backend="loopback", fw=2))
    assert isinstance(report, RunReport)
    assert set(report.results) == set(range(prog.nprocs))
    assert report.timings  # per-phase op tallies
    assert all(v >= 0 for v in report.timings.values())
    # Trajectories are seeded with the initial window on every backend.
    assert all(h[0] == (0, 2) for h in report.window_history.values())
    assert len(report.stats) == prog.nprocs
    assert 0.0 <= report.rejection_rate <= 1.0
    assert report.fault_summary is None
    assert report.event_log is None


def test_report_records_trace_when_asked():
    report = run(RunConfig(_program(), backend="loopback", record_trace=True))
    assert report.event_log is not None
    assert len(report.event_log.events) > 0


def test_bw_threads_through_to_engines():
    prog = _program()
    report = run(RunConfig(prog, backend="loopback", fw=1, bw=3))
    assert all(eng.hist_cap == 3 for eng in report.raw.engines.values())


def test_fault_summary_surfaces_in_report():
    plan = FaultPlan(seed=7, edges=(EdgeFault(kind="drop", rate=0.2),))
    prog = _program(p=4, iterations=12)
    report = run(
        RunConfig(prog, backend="loopback", fw=1, fault_plan=plan)
    )
    summary = report.fault_summary
    assert summary is not None
    assert summary["total_injected"] >= 1
    assert summary["outstanding_losses"] == 0  # every drop healed
