"""Unit tests for RunReport aggregation, SpecStats and speedup helpers."""

import pytest

from repro.api import RunConfig, run
from repro.core import RunReport, SpecStats, speedup, speedup_max
from repro.harness import build_nbody
from repro.trace import PHASES, PhaseTrace


def make_result(fw=1, iterations=4):
    t0 = PhaseTrace(rank=0)
    t1 = PhaseTrace(rank=1)
    # iteration 0: compute only; iterations 1..3: compute + comm
    clock = 0.0
    for it in range(iterations):
        t0.record("compute", clock, clock + 2.0, iteration=it)
        t1.record("compute", clock, clock + 2.0, iteration=it)
        if it > 0:
            t0.record("comm", clock + 2.0, clock + 3.0, iteration=it)
            t1.record("correct", clock + 2.0, clock + 2.5, iteration=it)
        clock += 3.0
    stats = [
        SpecStats(rank=0, spec_made=6, spec_accepted=5, spec_rejected=1, checks=6,
                  recomputes=1, iterations=iterations),
        SpecStats(rank=1, spec_made=6, spec_accepted=3, spec_rejected=3, checks=6,
                  recomputes=4, iterations=iterations),
    ]
    return RunReport(
        backend="des",
        results={0: None, 1: None},
        wall_seconds=clock,
        traces=[t0, t1],
        stats=stats,
        window_history={0: [(0, fw)], 1: [(0, fw), (2, fw + 1)]},
        fw=fw,
        iterations=iterations,
        capacities=[2.0, 1.0],
    )


def test_basic_properties():
    r = make_result()
    assert r.nprocs == 2
    assert r.time_per_iteration == pytest.approx(3.0)
    assert "FW=1" in repr(r)


def test_breakdown_max_over_ranks():
    r = make_result()
    b = r.breakdown()
    assert b["compute"] == pytest.approx(8.0)
    assert b["comm"] == pytest.approx(3.0)
    assert b["correct"] == pytest.approx(1.5)


def test_steady_breakdown_excludes_warmup():
    r = make_result()
    b = r.steady_breakdown(skip=1)
    # Steady-state comm: 3 intervals of 1.0 over 3 iterations = 1.0.
    assert b["comm"] == pytest.approx(1.0)
    assert b["compute"] == pytest.approx(2.0)


@pytest.mark.parametrize("how", ["max", "sum", "mean"])
@pytest.mark.parametrize("skip", [0, 1, 2])
def test_steady_breakdown_equals_a_reference_summed_over_intervals(skip, how):
    """The rows are filtered directly; the reference walks ``Interval``
    objects the way the setter-based version did."""
    r = make_result(iterations=5)
    per_rank, spans = [], []
    for trace in r.traces:
        kept = [iv for iv in trace.intervals
                if iv.iteration is None or iv.iteration >= skip]
        totals = dict.fromkeys(PHASES, 0.0)
        for iv in kept:
            totals[iv.phase] += iv.duration
        per_rank.append(totals)
        spans.append(max(iv.end for iv in kept) - min(iv.start for iv in kept))
    merge = {"max": max, "sum": sum, "mean": lambda v: sum(v) / len(v)}[how]
    scale = 1.0 / (r.iterations - skip)
    got = r.steady_breakdown(how=how, skip=skip)
    assert got.totals == {
        phase: merge([t[phase] for t in per_rank]) * scale for phase in PHASES
    }
    span = sum(spans) / len(spans) if how == "mean" else max(spans)
    assert got.span == span * scale


def test_steady_breakdown_validation():
    r = make_result()
    with pytest.raises(ValueError):
        r.steady_breakdown(skip=4)
    with pytest.raises(ValueError):
        r.steady_breakdown(skip=-1)


def test_timings_are_the_max_breakdown_over_the_six_phases():
    r = make_result()
    assert list(r.timings) == list(PHASES)
    assert r.timings == r.breakdown("max").totals
    assert r.timings == {
        phase: max(t.total(phase) for t in r.traces) for phase in PHASES
    }


def test_final_windows_follow_the_trajectories_in_rank_order():
    assert make_result(fw=1).final_windows() == [1, 2]


def test_rejection_and_recompute_rates():
    r = make_result()
    assert r.rejection_rate == pytest.approx(4 / 12)


def test_rates_zero_when_no_checks():
    r = make_result()
    for s in r.stats:
        s.checks = s.spec_rejected = s.spec_accepted = s.recomputes = 0
    assert r.rejection_rate == 0.0


def test_measured_k_ratio():
    r = make_result()
    k = r.measured_k()
    # steady correct on rank 1 = 0.5/iter, compute = 2.0/iter, max over
    # ranks per phase: correct 0.5, compute 2.0 -> 0.25.
    assert k == pytest.approx(0.25)


def test_spec_stats_rejection_rate():
    s = SpecStats(rank=0, checks=10, spec_rejected=3)
    assert s.rejection_rate == pytest.approx(0.3)
    assert SpecStats(rank=0).rejection_rate == 0.0


def test_speedup_helpers():
    assert speedup(10.0, 2.0) == 5.0
    with pytest.raises(ValueError):
        speedup(0.0, 1.0)
    with pytest.raises(ValueError):
        speedup(1.0, -1.0)
    assert speedup_max([4.0, 2.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        speedup_max([])
    with pytest.raises(ValueError):
        speedup_max([1.0, 0.0])


#: ``repro nbody -p 4 --particles 120 --iterations 5`` on DES, captured
#: on the commit before RunResult was folded into RunReport (42320e3):
#: ``RunReport.timings``, then ``RunResult.steady_breakdown()``.
PARENT_WALL = 1.053703201508313
PARENT_TIMINGS = {
    "check": 0.007978459999191778,
    "comm": 0.0,
    "compute": 1.0170960109695482,
    "correct": 0.028244606296063623,
    "idle": 0.0,
    "spec": 0.003989229999595778,
}
PARENT_STEADY = {
    "check": 0.0019946149997979445,
    "comm": 0.0,
    "compute": 0.20341920219390963,
    "correct": 0.007061151574015906,
    "idle": 0.0,
    "spec": 0.0009973074998989445,
}
PARENT_STEADY_SPAN = 0.21257099982860084


def test_des_timings_and_steady_breakdown_equal_the_parents():
    program, cluster, cfg = build_nbody(4, iterations=5, n_particles=120,
                                        threshold=0.01)
    report = run(RunConfig(program, backend="des", fw=1, seed=cfg["seed"],
                           cascade=cfg["cascade"], cluster=cluster))
    assert report.wall_seconds == PARENT_WALL
    assert report.timings == PARENT_TIMINGS
    steady = report.steady_breakdown()
    assert steady.totals == PARENT_STEADY
    assert steady.span == PARENT_STEADY_SPAN
    assert report.capacities == cluster.capacities()
