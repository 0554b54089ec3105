"""Tests for the unified run API (`repro.api`).

One `RunConfig` + `run()` must cover all three backends with a single
report shape; `RunConfig` is the one place a run's settings are
checked.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro import RunConfig, RunReport, api, run
from repro.apps.jacobi import JacobiSolver, diagonally_dominant_system
from repro.core import SpecStats
from repro.faults import EdgeFault, FaultPlan, RankFault, TriggerWindow
from repro.harness import build_nbody
from repro.harness.toys import ConstantProgram, JumpyProgram
from repro.netsim.latency import ConstantLatency
from repro.netsim.network import DelayNetwork
from repro.platforms import wustl_1994
from repro.policy import CascadePolicy, CostWindow
from repro.trace import PHASES
from repro.vm import Cluster, uniform_specs

from tests.toy_programs import CoupledIncrement


def _program(p=4, iterations=10, **kw):
    return CoupledIncrement(p, iterations, coupling=0.05, **kw)


# ------------------------------------------------------------- validation
def test_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        RunConfig(_program(), backend="smoke-signals")


def test_rejects_negative_fw():
    with pytest.raises(ValueError, match="fw must be >= 0"):
        RunConfig(_program(), fw=-1)


def test_cascade_is_coerced_at_construction():
    assert RunConfig(_program(), cascade="none").cascade is CascadePolicy.NONE
    with pytest.raises(ValueError, match="unknown cascade policy 'sideways'"):
        RunConfig(_program(), cascade="sideways")


def test_rejects_zero_bw():
    with pytest.raises(ValueError, match="bw"):
        RunConfig(_program(), bw=0)


def test_rejects_loopback_latency():
    with pytest.raises(ValueError, match="loopback backend has no clock"):
        RunConfig(_program(), backend="loopback", latency=0.1)


@pytest.mark.parametrize("timeout", [0.0, -1.0])
def test_rejects_nonpositive_timeout(timeout):
    with pytest.raises(ValueError, match="timeout must be > 0"):
        RunConfig(_program(), backend="mp", timeout=timeout)


def test_rejects_cluster_off_des():
    cluster = Cluster(uniform_specs(4))
    with pytest.raises(ValueError, match="DES-only"):
        RunConfig(_program(), backend="loopback", cluster=cluster)


def test_rejects_cluster_plus_latency():
    cluster = Cluster(uniform_specs(4))
    with pytest.raises(ValueError, match="mutually"):
        RunConfig(_program(), backend="des", cluster=cluster, latency=0.5)


@pytest.mark.parametrize("fw", [0, 3])
def test_rejects_initial_fw_outside_the_policy_bounds(fw):
    policy = CostWindow(min_fw=1, max_fw=2)
    with pytest.raises(ValueError, match=r"fw must lie within \[min_fw, max_fw\]"):
        RunConfig(_program(), fw=fw, window_policy=policy)
    RunConfig(_program(), fw=2, window_policy=policy)


def test_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        RunConfig(_program(), backend="mp", seed=-1)


@pytest.mark.parametrize(
    "plan",
    [
        FaultPlan(ranks=(RankFault(rank=4, slowdown=2.0),)),
        FaultPlan(edges=(EdgeFault(kind="drop", rate=0.1, src=7),)),
        FaultPlan(edges=(EdgeFault(kind="drop", rate=0.1, src=0, dst=4),)),
    ],
    ids=["rank", "edge-src", "edge-dst"],
)
def test_rejects_fault_plan_naming_a_missing_rank(plan):
    with pytest.raises(ValueError, match="fault plan names rank"):
        RunConfig(_program(p=4), fault_plan=plan)
    # A wildcard edge names no rank.
    RunConfig(_program(p=4), fault_plan=FaultPlan(
        edges=(EdgeFault(kind="drop", rate=0.1, dst=3),)))


# ---------------------------------------------------------------- parity
def _des_cluster(p, latency=0.0):
    return Cluster(
        uniform_specs(p),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(latency)),
    )


def test_des_default_cluster_equals_an_explicit_one():
    prog = _program()
    direct = run(RunConfig(prog, fw=1, cascade="recompute",
                           cluster=_des_cluster(4, 0.01)))
    report = run(RunConfig(prog, backend="des", fw=1, latency=0.01))
    assert type(direct) is type(report) is RunReport
    assert report.wall_seconds == direct.wall_seconds
    assert report.timings == direct.timings
    for rank in range(prog.nprocs):
        np.testing.assert_array_equal(
            report.results[rank], direct.results[rank]
        )


def test_loopback_default_cascade_is_recompute():
    prog = _program()
    direct = run(RunConfig(prog, backend="loopback", fw=1, cascade="recompute"))
    report = run(RunConfig(prog, backend="loopback", fw=1))
    assert type(direct) is type(report) is RunReport
    assert report.wall_seconds == direct.wall_seconds > 0
    assert report.timings == direct.timings
    for rank in range(prog.nprocs):
        np.testing.assert_array_equal(report.results[rank], direct.results[rank])
    assert [s.spec_made for s in report.stats] == [s.spec_made for s in direct.stats]


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
def _jacobi():
    a, b = diagonally_dominant_system(24, seed=3)
    return JacobiSolver(a, b, capacities=[1000.0] * 3, iterations=6,
                        threshold=1e-6)


def _nbody():
    program, _cluster, _cfg = build_nbody(
        2, iterations=4, n_particles=64, threshold=0.01, simulated=False)
    return program


@pytest.mark.parametrize("backend", ["des", "loopback", "mp"])
@pytest.mark.parametrize("build", [_jacobi, _nbody])
def test_one_report_shape_on_every_backend(build, backend):
    """The shape contract: the same fields, the six canonical phases
    and one PhaseTrace per rank covering every iteration, whichever
    backend ran — only the clock differs."""
    prog = build()
    p, iterations = prog.nprocs, prog.iterations
    latency = 0.0 if backend == "loopback" else 0.02
    report = run(RunConfig(prog, backend=backend, fw=1, latency=latency,
                           timeout=120.0))
    assert type(report) is RunReport and report.backend == backend
    assert (report.fw, report.iterations, report.nprocs) == (1, iterations, p)
    assert sorted(report.results) == list(range(p))
    assert sorted(report.timings) == sorted(PHASES)
    assert [trace.rank for trace in report.traces] == list(range(p))
    for trace in report.traces:
        assert set(trace.iterations()) <= set(range(iterations))
        computed = {row[3] for row in trace.records if row[0] == "compute"}
        assert computed == set(range(iterations))
    assert report.timings == {
        phase: max(trace.total(phase) for trace in report.traces)
        for phase in PHASES
    }
    assert report.final_windows() == [1] * p
    assert sorted(report.window_history) == list(range(p))
    assert 0.0 <= report.rejection_rate <= 1.0
    assert [s.rank for s in report.stats] == list(range(p))
    # What a backend cannot know is empty, not absent.
    assert (report.capacities != []) == (backend == "des")
    assert report.fault_summary is None and report.event_log is None
    if backend == "mp":
        for trace in report.traces:
            durations = sum(end - start for _, start, end, _ in trace.records)
            assert durations <= report.wall_seconds
        assert report.timings["comm"] > 0
    if backend == "loopback":
        assert report.timings["comm"] == report.timings["idle"] == 0.0


#: ``RunReport.timings`` on loopback, captured on the commit where it
#: was still the max over ranks of ``LoopbackRunner.phase_ops`` (42320e3).
PARENT_PHASE_OPS = {
    "constant": {"compute": 4000000.0, "spec": 300000.0, "check": 300000.0},
    "nbody": {"compute": 431232.0, "spec": 768.0, "check": 1536.0},
}


@pytest.mark.parametrize("name", sorted(PARENT_PHASE_OPS))
def test_loopback_op_clock_totals_equal_the_parents_phase_ops(name):
    if name == "constant":
        prog = ConstantProgram(nprocs=3, iterations=4)
    else:
        prog, _cluster, _cfg = build_nbody(
            2, iterations=3, n_particles=64, threshold=0.01, simulated=False)
    report = run(RunConfig(prog, backend="loopback", fw=1))
    expected = dict.fromkeys(PHASES, 0.0) | PARENT_PHASE_OPS[name]
    assert report.timings == expected
    # Rows sit back to back on the rank's own op clock.
    for trace in report.traces:
        ends = [end for _, _, end, _ in trace.records]
        assert [start for _, start, _, _ in trace.records] == [0.0] + ends[:-1]


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


def test_bw_threads_through_to_engines(monkeypatch):
    # The report carries no engines: watch the one factory build them.
    built = []
    build = api.rank_engine

    def watched(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(api, "rank_engine", watched)
    run(RunConfig(_program(), backend="loopback", fw=1, bw=3))
    assert len(built) == 4
    assert all(eng.hist_cap == 3 for eng in built)


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
