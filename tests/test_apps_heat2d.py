"""Tests for the 2-D heat-equation application."""

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.apps import HeatEquation2D
from repro.netsim import ConstantLatency, DelayNetwork
from repro.vm import Cluster, uniform_specs


def make_cluster(p, latency=0.0, capacity=1e6):
    return Cluster(
        uniform_specs(p, capacity=capacity),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(latency)),
    )


def make_program(rows=24, cols=16, p=3, iterations=8, **kw):
    rng = np.random.default_rng(1)
    initial = rng.uniform(0.0, 1.0, size=(rows, cols))
    kw.setdefault("threshold", 0.0)
    return HeatEquation2D(initial, [1e6] * p, iterations, r=0.2, boundary=0.5, **kw)


def test_validation():
    with pytest.raises(ValueError):
        HeatEquation2D(np.zeros(10), [1.0], 5)  # 1-D field
    with pytest.raises(ValueError):
        HeatEquation2D(np.zeros((2, 4)), [1.0, 1.0, 1.0], 5)  # too few rows
    with pytest.raises(ValueError):
        HeatEquation2D(np.zeros((8, 4)), [1.0, 1.0], 5, r=0.3)  # unstable r
    from repro.partition import Partition

    interleaved = Partition(8, (np.arange(0, 8, 2), np.arange(1, 8, 2)))
    with pytest.raises(ValueError):
        HeatEquation2D(np.zeros((8, 4)), [1.0, 1.0], 5, partition=interleaved)


def test_topology_neighbors_only():
    prog = make_program(p=4)
    assert prog.needed(0) == frozenset({1})
    assert prog.needed(2) == frozenset({1, 3})
    assert prog.needed(3) == frozenset({2})


def test_fw0_matches_reference():
    prog = make_program()
    result = run(RunConfig(prog, fw=0, cluster=make_cluster(3, latency=0.05)))
    np.testing.assert_allclose(prog.gather(result.results), prog.reference(), atol=1e-12)


def test_fw1_theta_zero_exact():
    prog = make_program()
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(3, latency=0.3)))
    np.testing.assert_allclose(prog.gather(result.results), prog.reference(), atol=1e-10)


def test_incremental_row_correction_exact():
    prog = make_program(p=2)
    inputs = {0: prog.initial_block(0), 1: prog.initial_block(1)}
    wrong = inputs[1].copy()
    wrong[0, :] += 0.3  # corrupt the ghost row rank 0 reads
    tainted = dict(inputs)
    tainted[1] = wrong
    bad_next = prog.compute(0, tainted, 0)
    ops = prog.correct_ops(0, inputs, 1, wrong, inputs[1], 0)
    fixed = prog.correct(0, bad_next, inputs, [(1, wrong, inputs[1])], 0)
    clean = prog.compute(0, inputs, 0)
    np.testing.assert_allclose(fixed, clean, atol=1e-13)
    assert ops > 0


def test_check_only_consumed_ghost_row():
    prog = make_program(p=2)
    spec = prog.initial_block(1).copy()
    actual = prog.initial_block(1)
    spec[-1, :] += 10.0  # bottom row of strip 1: NOT read by rank 0
    assert prog.check(0, 1, spec, actual, prog.initial_block(0)) == 0.0
    spec2 = actual.copy()
    spec2[0, :] += 0.25  # top row: read by rank 0
    assert prog.check(0, 1, spec2, actual, prog.initial_block(0)) == pytest.approx(0.25)


def test_speculate_extrapolates_only_ghost_row():
    prog = make_program(p=2)
    v0 = prog.initial_block(1)
    v1 = v0 + 1.0
    spec = prog.speculate(0, 1, [0, 1], [v0, v1], 2)
    # ghost row (top) linearly extrapolated: v0+2
    np.testing.assert_allclose(spec[0, :], v0[0, :] + 2.0)
    # other rows held at the latest value
    np.testing.assert_allclose(spec[1:, :], v1[1:, :])


def test_diffusion_towards_boundary_value():
    prog = make_program(rows=12, cols=8, p=2, iterations=800)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(2)))
    grid = prog.gather(result.results)
    # long-run: everything relaxes to the uniform boundary temperature
    np.testing.assert_allclose(grid, 0.5, atol=0.02)


def test_heterogeneous_row_allocation():
    rng = np.random.default_rng(0)
    prog = HeatEquation2D(rng.uniform(size=(30, 6)), [3e6, 1e6], 4)
    assert prog.partition.counts == (23, 7)


def test_cost_model():
    prog = make_program(rows=24, cols=16, p=3)
    n_rows = len(prog.partition.indices(0))
    assert prog.compute_ops(0) == pytest.approx(10.0 * n_rows * 16)
    assert prog.speculate_ops(0, 1) == pytest.approx(64.0)
    assert prog.check_ops(0, 1) == pytest.approx(32.0)
    assert prog.block_nbytes(0) == 8 * n_rows * 16 + 64
