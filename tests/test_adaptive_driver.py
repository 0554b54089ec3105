"""The AIMD window policy steering the DES driver end to end.

Unit tests of :class:`~repro.policy.AimdWindow` itself live in
``tests/test_window_policy.py``; these run whole simulations and check
where the windows end up.
"""

import numpy as np
import pytest

from repro.core import ZeroOrderHold, run_program
from repro.netsim import ConstantLatency, DelayNetwork
from repro.policy import AimdWindow
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
        AimdWindow(epoch=0)
    with pytest.raises(ValueError):
        AimdWindow(min_fw=3, max_fw=2)
    with pytest.raises(ValueError):
        AimdWindow(reject_low=0.5, reject_high=0.2)
    with pytest.raises(ValueError):
        AimdWindow(wait_fraction=-0.1)


def test_initial_fw_must_lie_in_bounds():
    prog = constant_prog(iterations=4)
    with pytest.raises(ValueError):
        run_program(
            prog, make_cluster(2, 0.1), fw=5, window_policy=AimdWindow(max_fw=3)
        )


def test_window_widens_under_large_delays():
    """comm = 3x compute: FW=1 leaves waiting, so the controller widens."""
    prog = constant_prog(iterations=32)
    result = run_program(
        prog, make_cluster(2, latency=3.0), fw=1,
        window_policy=AimdWindow(epoch=4, max_fw=4),
    )
    assert all(fw >= 2 for fw in result.final_windows())
    # And widening actually helped relative to a static FW=1 run.
    static = run_program(constant_prog(iterations=32), make_cluster(2, 3.0), fw=1)
    assert result.wall_seconds < static.wall_seconds


def test_window_shrinks_when_speculation_always_wrong():
    """Hostile dynamics: the controller backs down toward blocking."""
    prog = RandomDrift(nprocs=2, iterations=32, coupling=0.0, threshold=0.0,
                       ops_per_compute=1000.0)
    result = run_program(
        prog, make_cluster(2, latency=2.0), fw=3,
        window_policy=AimdWindow(epoch=4, min_fw=0, max_fw=4),
    )
    assert all(fw < 3 for fw in result.final_windows())


def test_window_stable_when_masking_complete():
    """comm < compute and perfect speculation: FW=1 suffices, no drift."""
    prog = constant_prog(iterations=24)
    result = run_program(
        prog, make_cluster(2, latency=0.5), fw=1,
        window_policy=AimdWindow(epoch=4, max_fw=4),
    )
    assert result.final_windows() == [1, 1]


def test_history_records_decisions():
    prog = constant_prog(iterations=32)
    result = run_program(
        prog, make_cluster(2, latency=3.0), fw=1,
        window_policy=AimdWindow(epoch=4, max_fw=3),
    )
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
    result = run_program(
        prog, make_cluster(3, latency=0.2), fw=1,
        window_policy=AimdWindow(epoch=4, max_fw=1),  # cap: stays exact
    )
    ref = prog.reference_run()
    for rank, block in result.results.items():
        np.testing.assert_allclose(block, ref[rank], atol=1e-9)
