"""The cost-rule window policy steering the DES driver end to end.

Unit tests of :class:`~repro.policy.CostWindow` itself live in
``tests/test_window_policy.py``; these run whole simulations and check
where the windows end up.
"""

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.core import ZeroOrderHold
from repro.netsim import ConstantLatency, DelayNetwork
from repro.policy import CostWindow
from repro.vm import Cluster, uniform_specs

from tests.toy_programs import CoupledIncrement, RandomDrift


def make_cluster(p, latency, capacity=1000.0):
    return Cluster(
        uniform_specs(p, capacity=capacity),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(latency)),
    )


def constant_prog(iterations=24, **kw):
    kw.setdefault("threshold", 0.0)
    kw.setdefault("speculator", ZeroOrderHold())
    return CoupledIncrement(
        nprocs=2, iterations=iterations, coupling=0.0, rates=[0.0, 0.0],
        ops_per_compute=1000.0, **kw,
    )


def test_policy_validation():
    with pytest.raises(ValueError):
        CostWindow(epoch=0)
    with pytest.raises(ValueError):
        CostWindow(min_fw=3, max_fw=2)
    with pytest.raises(ValueError):
        CostWindow(min_fw=-1)


def test_initial_fw_must_lie_in_bounds():
    prog = constant_prog(iterations=4)
    with pytest.raises(ValueError):
        run(RunConfig(prog, fw=5, window_policy=CostWindow(max_fw=3),
                      cluster=make_cluster(2, 0.1)))


def test_window_widens_under_large_delays():
    """comm = 3x compute: FW=1 leaves waiting, so the controller widens."""
    prog = constant_prog(iterations=32)
    result = run(RunConfig(prog, fw=1, window_policy=CostWindow(epoch=4, max_fw=4),
                           cluster=make_cluster(2, latency=3.0)))
    assert all(fw >= 2 for fw in result.final_windows())
    # And widening actually helped relative to a static FW=1 run.
    static = run(RunConfig(constant_prog(iterations=32), fw=1,
                           cluster=make_cluster(2, 3.0)))
    assert result.wall_seconds < static.wall_seconds


def test_window_shrinks_when_speculation_always_wrong():
    """Hostile dynamics: every speculation is rejected, and each costs
    more recomputation than the 0.2 s of latency it hides — the
    controller backs down to blocking, and beats the static window."""

    def prog():
        return RandomDrift(nprocs=2, iterations=32, coupling=0.0,
                           threshold=0.0, ops_per_compute=1000.0)

    result = run(RunConfig(prog(), fw=3,
                           window_policy=CostWindow(epoch=4, min_fw=0, max_fw=4),
                           cluster=make_cluster(2, latency=0.2)))
    assert result.final_windows() == [0, 0]
    static = run(RunConfig(prog(), fw=3, cluster=make_cluster(2, latency=0.2)))
    assert result.wall_seconds < static.wall_seconds


def test_window_stable_when_masking_complete():
    """comm < compute and perfect speculation: FW=1 suffices, no drift."""
    prog = constant_prog(iterations=24)
    result = run(RunConfig(prog, fw=1, window_policy=CostWindow(epoch=4, max_fw=4),
                           cluster=make_cluster(2, latency=0.5)))
    assert result.final_windows() == [1, 1]


def test_history_records_decisions():
    prog = constant_prog(iterations=32)
    result = run(RunConfig(prog, fw=1, window_policy=CostWindow(epoch=4, max_fw=3),
                           cluster=make_cluster(2, latency=3.0)))
    for history in result.window_history.values():
        assert history[0] == (0, 1)
        iters = [it for it, _ in history]
        assert iters == sorted(iters)
        # Each recorded step changes the window by exactly 1.
        fws = [fw for _, fw in history]
        assert all(abs(b - a) == 1 for a, b in zip(fws, fws[1:]))


def test_adaptive_results_still_correct():
    """Adaptation must not corrupt the numerics (theta=0, FW<=1 path)."""
    prog = CoupledIncrement(nprocs=3, iterations=16, coupling=0.2,
                            threshold=0.0, ops_per_compute=1000.0)
    result = run(RunConfig(prog, fw=1,
                           window_policy=CostWindow(epoch=4, max_fw=1),  # cap: stays exact
                           cluster=make_cluster(3, latency=0.2)))
    ref = prog.reference_run()
    for rank, block in result.results.items():
        np.testing.assert_allclose(block, ref[rank], atol=1e-9)


def test_adaptive_finds_the_best_fixed_window_when_latency_dominates():
    """50 ms of latency against 10 us of work: a window of f hides all
    but (L + O_v) / f of it, so each wider window pays, and the best
    fixed window is the widest.  From FW=1 the policy ends there on
    every rank and, over 160 iterations with its ramp, stays within 10 %
    of that fixed window."""

    def run_toy(fw, policy=None):
        return run(RunConfig(constant_prog(iterations=160), fw=fw,
                             latency=0.05, window_policy=policy))

    fixed = {fw: run_toy(fw).wall_seconds for fw in range(5)}
    best = min(fixed, key=fixed.get)
    adaptive = run_toy(1, CostWindow(epoch=2, min_fw=0, max_fw=4))
    assert best == 4
    assert adaptive.final_windows() == [best, best]
    assert adaptive.wall_seconds <= 1.10 * fixed[best]


@pytest.mark.parametrize("p", [4, 16])
def test_adaptive_never_loses_to_the_best_fixed_window(p):
    """The fig8 contract at fig8's own T=20, from --fw 1 with min_fw=0:
    the adaptive makespan is within 2 % of the best fixed window.  At
    p=4 blocking is the best window and at p=16 FW=1 is; on this grid
    FW=2 never beats FW=1.  The DES is deterministic, so the bound is
    exact; benchmarks/bench_adaptive_window.py checks all of fig8's p."""
    from repro.harness import run_nbody

    def makespan(fw, policy=None):
        return run_nbody(p, fw, window_policy=policy)[1].wall_seconds

    best = min(makespan(0), makespan(1))
    adaptive = makespan(1, CostWindow(epoch=4, min_fw=0, max_fw=4))
    assert adaptive <= 1.02 * best
