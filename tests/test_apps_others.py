"""Integration tests for the heat-equation, Jacobi and Kuramoto apps."""

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.apps import HeatEquation1D, JacobiSolver, KuramotoProgram
from repro.apps.jacobi import diagonally_dominant_system
from repro.netsim import ConstantLatency, DelayNetwork
from repro.vm import Cluster, uniform_specs


def make_cluster(p, latency=0.0, capacity=1e6):
    return Cluster(
        uniform_specs(p, capacity=capacity),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(latency)),
    )


# ------------------------------------------------------------ heat equation
def heat_program(n=64, p=4, iterations=10, **kw):
    rng = np.random.default_rng(0)
    initial = rng.uniform(0.0, 1.0, size=n)
    kw.setdefault("threshold", 0.0)
    return HeatEquation1D(initial, [1e6] * p, iterations, r=0.25, boundary=(1.0, 0.0), **kw)


def test_heat_validation():
    with pytest.raises(ValueError):
        HeatEquation1D(np.zeros((2, 2)), [1.0], 5)
    with pytest.raises(ValueError):
        HeatEquation1D(np.zeros(10), [1.0, 1.0], 5, r=0.6)
    with pytest.raises(ValueError):
        HeatEquation1D(np.zeros(10), [1.0, 1.0], 5, r=0.0)
    from repro.partition import cyclic_partition

    with pytest.raises(ValueError):
        HeatEquation1D(np.zeros(10), [1.0, 1.0], 5, partition=cyclic_partition(10, 2))


def test_heat_topology_neighbors_only():
    prog = heat_program(p=4)
    assert prog.needed(0) == frozenset({1})
    assert prog.needed(1) == frozenset({0, 2})
    assert prog.needed(3) == frozenset({2})


def test_heat_fw0_matches_reference():
    prog = heat_program()
    result = run(RunConfig(prog, fw=0, cluster=make_cluster(4, latency=0.1)))
    np.testing.assert_allclose(prog.gather(result.results), prog.reference(), atol=1e-12)


def test_heat_fw1_theta_zero_exact():
    prog = heat_program()
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(4, latency=0.5)))
    np.testing.assert_allclose(prog.gather(result.results), prog.reference(), atol=1e-10)


def test_heat_incremental_correction_exact():
    """Edge-cell fix-up equals full recomputation."""
    prog = heat_program(n=32, p=2)
    inputs = {0: prog.initial_block(0), 1: prog.initial_block(1)}
    wrong = inputs[1] + 0.2
    tainted = dict(inputs)
    tainted[1] = wrong
    bad_next = prog.compute(0, tainted, 0)
    ops = prog.correct_ops(0, inputs, 1, wrong, inputs[1], 0)
    fixed = prog.correct(0, bad_next, inputs, [(1, wrong, inputs[1])], 0)
    clean = prog.compute(0, inputs, 0)
    np.testing.assert_allclose(fixed, clean, atol=1e-14)
    assert ops == 4.0


def test_heat_messages_only_between_neighbors():
    prog = heat_program(p=4, iterations=5)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(4, latency=0.1)))
    # Interior ranks send to 2 neighbors, edge ranks to 1, per iteration
    # after the first.
    sends = [s.messages_sent for s in result.stats]
    assert sends[0] == (prog.iterations - 1) * 1
    assert sends[1] == (prog.iterations - 1) * 2
    assert sends[2] == (prog.iterations - 1) * 2
    assert sends[3] == (prog.iterations - 1) * 1


def test_heat_converges_to_linear_profile():
    """With fixed 1/0 boundaries the field tends to a linear ramp."""
    prog = heat_program(n=16, p=2, iterations=2000)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(2)))
    field = prog.gather(result.results)
    x = (np.arange(16) + 1) / 17.0
    expected = 1.0 - x
    np.testing.assert_allclose(field, expected, atol=0.01)


# ------------------------------------------------------------- Jacobi solver
def test_jacobi_system_generator():
    a, b = diagonally_dominant_system(20, seed=1)
    assert a.shape == (20, 20)
    diag = np.abs(np.diag(a))
    off = np.abs(a).sum(axis=1) - diag
    assert np.all(diag > off)
    with pytest.raises(ValueError):
        diagonally_dominant_system(0)
    with pytest.raises(ValueError):
        diagonally_dominant_system(5, dominance=0.5)


def test_jacobi_validation():
    a, b = diagonally_dominant_system(10)
    with pytest.raises(ValueError):
        JacobiSolver(a[:5], b, [1.0, 1.0], 5)
    bad = a.copy()
    bad[0, 0] = 0.0
    with pytest.raises(ValueError):
        JacobiSolver(bad, b, [1.0, 1.0], 5)
    with pytest.raises(ValueError):
        JacobiSolver(a, b, [1.0, 1.0], 5, x0=np.zeros(3))


def test_jacobi_fw0_matches_reference():
    a, b = diagonally_dominant_system(30, seed=2)
    prog = JacobiSolver(a, b, [1e6] * 3, 8, threshold=0.0)
    result = run(RunConfig(prog, fw=0, cluster=make_cluster(3, latency=0.1)))
    np.testing.assert_allclose(prog.gather(result.results), prog.reference(), atol=1e-12)


def test_jacobi_fw1_theta_zero_exact():
    a, b = diagonally_dominant_system(30, seed=3)
    prog = JacobiSolver(a, b, [1e6] * 3, 10, threshold=0.0)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(3, latency=0.5)))
    np.testing.assert_allclose(prog.gather(result.results), prog.reference(), atol=1e-10)


def test_jacobi_converges():
    a, b = diagonally_dominant_system(24, seed=4)
    prog = JacobiSolver(a, b, [1e6, 1e6], 60, threshold=0.0)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(2, latency=0.2)))
    x = prog.gather(result.results)
    assert prog.residual(x) < 1e-6 * max(1.0, prog.residual(prog.x0))


def test_jacobi_rejections_decline_as_it_converges():
    """Converging dynamics: late-run speculations are nearly exact, so a
    fixed threshold rejects mostly early iterations."""
    a, b = diagonally_dominant_system(24, seed=5)
    prog = JacobiSolver(a, b, [1e6, 1e6], 40, threshold=1e-6)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(2, latency=0.5)))
    total_rejects = sum(s.spec_rejected for s in result.stats)
    total_checks = sum(s.checks for s in result.stats)
    assert total_checks > 0
    # Not everything is rejected: the tail of the run speculates exactly.
    assert total_rejects < total_checks


# ----------------------------------------------------------------- Kuramoto
def test_kuramoto_validation():
    with pytest.raises(ValueError):
        KuramotoProgram(np.ones(5), np.zeros(4), [1.0], 5)
    with pytest.raises(ValueError):
        KuramotoProgram(np.ones(5), np.zeros(5), [1.0], 5, dt=0.0)


def test_kuramoto_fw0_matches_reference():
    prog = KuramotoProgram.random(40, [1e6] * 4, 10, seed=6, threshold=0.0)
    result = run(RunConfig(prog, fw=0, cluster=make_cluster(4, latency=0.1)))
    np.testing.assert_allclose(prog.gather(result.results), prog.reference(), atol=1e-12)


def test_kuramoto_fw1_theta_zero_exact():
    prog = KuramotoProgram.random(40, [1e6] * 4, 10, seed=7, threshold=0.0)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(4, latency=0.5)))
    np.testing.assert_allclose(prog.gather(result.results), prog.reference(), atol=1e-10)


def test_kuramoto_linear_speculation_mostly_accepted():
    """Phases drift ~linearly, so linear extrapolation is rarely rejected
    even with a tight threshold."""
    prog = KuramotoProgram.random(60, [1e6] * 3, 15, seed=8, dt=0.01, threshold=1e-4)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(3, latency=0.5)))
    assert result.rejection_rate < 0.5


def test_kuramoto_strong_coupling_synchronises():
    prog = KuramotoProgram.random(
        50, [1e6, 1e6], 400, seed=9, coupling=5.0, dt=0.02, threshold=0.0
    )
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(2)))
    theta = prog.gather(result.results)
    assert prog.synchrony(theta) > prog.synchrony(prog.theta0)
    assert prog.synchrony(theta) > 0.8
