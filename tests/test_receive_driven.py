"""Tests for the Fig. 7 receive-driven baseline and incremental programs."""

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.apps import NBodyProgram
from repro.nbody import uniform_cube
from repro.netsim import ConstantLatency, DelayNetwork, StochasticLatency
from repro.vm import Cluster, uniform_specs

from tests.toy_programs import CoupledIncrement


def make_cluster(p, latency=0.0, jitter=0.0, capacity=1e6):
    def factory(env):
        lat = ConstantLatency(latency)
        if jitter:
            return DelayNetwork(env, StochasticLatency(lat, sigma=jitter, seed=5))
        return DelayNetwork(env, lat)

    return Cluster(uniform_specs(p, capacity=capacity), network_factory=factory)


def nbody(n=36, p=3, iterations=5, **kw):
    system = uniform_cube(n, seed=2, softening=0.1)
    return NBodyProgram(system, [1e6] * p, iterations, dt=0.01, **kw)


def test_requires_incremental_program():
    prog = CoupledIncrement(nprocs=2, iterations=2)
    with pytest.raises(TypeError):
        RunConfig(prog, receive_driven=True, cluster=make_cluster(2))


def test_cluster_size_must_match():
    prog = nbody(p=2)
    with pytest.raises(ValueError):
        RunConfig(prog, receive_driven=True, cluster=make_cluster(3))


def test_incremental_decomposition_equals_compute():
    """begin/absorb/finish in any order == the monolithic compute."""
    prog = nbody(n=30, p=3)
    inputs = {r: prog.initial_block(r) for r in range(3)}
    expected = prog.compute(0, inputs, 0)
    for order in ([1, 2], [2, 1]):
        acc = prog.begin(0, inputs[0], 0)
        for k in order:
            acc = prog.absorb(0, acc, k, inputs[k], 0)
        got = prog.finish(0, acc, inputs[0], 0)
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_receive_driven_matches_serial_reference():
    prog = nbody()
    result = run(RunConfig(prog, receive_driven=True,
                           cluster=make_cluster(3, latency=0.2)))
    final = prog.gather(result.results)
    ref = prog.reference()
    np.testing.assert_allclose(final.pos, ref.pos, atol=1e-10)
    np.testing.assert_allclose(final.vel, ref.vel, atol=1e-10)


def test_receive_driven_matches_blocking_driver():
    prog1 = nbody()
    r1 = run(RunConfig(prog1, receive_driven=True,
                       cluster=make_cluster(3, latency=0.2)))
    prog2 = nbody()
    r2 = run(RunConfig(prog2, fw=0, cluster=make_cluster(3, latency=0.2)))
    for rank in range(3):
        np.testing.assert_allclose(
            r1.results[rank], r2.results[rank], atol=1e-12
        )
    # Same report as the blocking driver's: no window, never speculated.
    assert type(r1) is type(r2) and r1.backend == r2.backend == "des"
    assert r1.fw == r2.fw == 0
    assert r1.window_history == r2.window_history == {r: [(0, 0)] for r in range(3)}
    assert r1.capacities == r2.capacities and len(r1.traces) == 3


def test_receive_driven_overlaps_staggered_arrivals():
    """With jittered arrivals, absorbing early messages while waiting
    for stragglers beats the all-then-compute baseline."""
    def go(driver_kind):
        prog = nbody(n=60, p=3, iterations=8)
        cluster = make_cluster(3, latency=0.8, jitter=1.0, capacity=2e5)
        if driver_kind == "recv":
            return run(RunConfig(prog, receive_driven=True, cluster=cluster))
        return run(RunConfig(prog, fw=0, cluster=cluster))

    t_recv = go("recv").wall_seconds
    t_block = go("block").wall_seconds
    assert t_recv <= t_block + 1e-9


@pytest.mark.parametrize("backend", ["des", "loopback", "mp"])
def test_receive_driven_runs_on_every_backend(backend):
    """The baseline reaches every backend through the one engine
    factory.  Each rank absorbs remote blocks in arrival order, so the
    physics agrees with the DES run to rounding, not bit for bit."""
    reference = run(RunConfig(nbody(), receive_driven=True, latency=0.01))
    latency = 0.0 if backend == "loopback" else 0.01
    report = run(RunConfig(nbody(), backend=backend, receive_driven=True,
                           latency=latency, timeout=120.0))
    assert report.backend == backend
    assert report.fw == 0
    for rank in range(3):
        np.testing.assert_allclose(report.results[rank],
                                   reference.results[rank], atol=1e-12)


def test_receive_driven_cost_model_totals():
    """begin + absorbs + finish ops equal the monolithic compute_ops."""
    prog = nbody(n=40, p=4)
    for rank in range(4):
        total = prog.begin_ops(rank) + prog.finish_ops(rank) + sum(
            prog.absorb_ops(rank, k) for k in range(4) if k != rank
        )
        assert total == pytest.approx(prog.compute_ops(rank), rel=1e-12)


def test_receive_driven_stats_and_result_shape():
    prog = nbody(iterations=4)
    result = run(RunConfig(prog, receive_driven=True,
                           cluster=make_cluster(3, latency=0.1)))
    assert result.fw == 0
    assert result.iterations == 4
    for s in result.stats:
        assert s.iterations == 4
        assert s.spec_made == 0
        assert s.messages_sent == (4 - 1) * 2
