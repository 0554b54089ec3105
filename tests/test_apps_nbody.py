"""Integration tests: the N-body application on the speculative driver."""

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.apps import NBodyProgram
from repro.netsim import ConstantLatency, DelayNetwork
from repro.nbody import uniform_cube, cold_disk
from repro.vm import Cluster, ProcessorSpec, uniform_specs


def make_cluster(caps, latency=0.0):
    specs = [ProcessorSpec(f"cpu{i}", c) for i, c in enumerate(caps)]
    return Cluster(
        specs,
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(latency)),
    )


def make_program(n=48, p=3, iterations=5, dt=0.01, threshold=0.01, seed=0, **kw):
    system = uniform_cube(n, seed=seed, softening=0.1)
    caps = [1e6] * p
    return NBodyProgram(system, caps, iterations, dt=dt, threshold=threshold, **kw), caps


def test_validation():
    system = uniform_cube(10, seed=0)
    with pytest.raises(ValueError):
        NBodyProgram(system, [1.0, 1.0], 5, dt=0.0)
    from repro.partition import block_partition

    with pytest.raises(ValueError):
        NBodyProgram(system, [1.0, 1.0], 5, partition=block_partition(10, 3))
    with pytest.raises(ValueError):
        NBodyProgram(system, [1.0], 5, partition=block_partition(9, 1))


def test_fw0_matches_serial_reference():
    prog, caps = make_program()
    result = run(RunConfig(prog, fw=0, cluster=make_cluster([1e6] * 3, latency=0.1)))
    final = prog.gather(result.results)
    ref = prog.reference()
    np.testing.assert_allclose(final.pos, ref.pos, atol=1e-10)
    np.testing.assert_allclose(final.vel, ref.vel, atol=1e-10)


def test_theta_zero_fw1_run_exact():
    """θ=0 with FW=1: every imperfect speculation is corrected *before*
    its consumer block is broadcast -> exact physics."""
    prog, caps = make_program(threshold=0.0)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(caps, latency=0.5)))
    assert sum(s.tainted_sends for s in result.stats) == 0
    final = prog.gather(result.results)
    ref = prog.reference()
    np.testing.assert_allclose(final.pos, ref.pos, atol=1e-9)
    np.testing.assert_allclose(final.vel, ref.vel, atol=1e-9)


def test_theta_zero_fw2_bounded_deviation():
    """With FW=2, tainted sends are inherent: a receiver may consume a
    block computed from unverified speculation, and the paper's
    local-only correction never repairs it.  θ=0 then bounds, but does
    not eliminate, the deviation from the serial reference."""
    prog, caps = make_program(threshold=0.0)
    result = run(RunConfig(prog, fw=2, cluster=make_cluster(caps, latency=0.5)))
    final = prog.gather(result.results)
    ref = prog.reference()
    if sum(s.tainted_sends for s in result.stats) == 0:
        np.testing.assert_allclose(final.pos, ref.pos, atol=1e-9)
    else:
        # One-step speculation error is O(|a| dt^2) ~ 1e-4 here; the
        # propagated deviation must stay in that ballpark.
        np.testing.assert_allclose(final.pos, ref.pos, atol=1e-4)
        assert np.max(np.abs(final.pos - ref.pos)) > 0.0


def test_incremental_correction_is_exact():
    """The O(n_bad x n_own) correction equals a full recomputation."""
    prog, caps = make_program(n=30, p=2, threshold=0.0)
    inputs = {r: prog.initial_block(r) for r in range(2)}
    # Speculate rank 1's block wrongly on purpose.
    wrong = inputs[1].copy()
    wrong[:, :3] += 0.05
    tainted_inputs = dict(inputs)
    tainted_inputs[1] = wrong
    tainted_next = prog.compute(0, tainted_inputs, 0)
    ops = prog.correct_ops(0, inputs, 1, wrong, inputs[1], 0)
    corrected = prog.correct(0, tainted_next, inputs, [(1, wrong, inputs[1])], 0)
    clean_next = prog.compute(0, inputs, 0)
    np.testing.assert_allclose(corrected, clean_next, atol=1e-12)
    assert ops > 0


def test_correction_noop_when_all_within_threshold():
    prog, caps = make_program(n=20, p=2, threshold=1e9)
    inputs = {r: prog.initial_block(r) for r in range(2)}
    next_block = prog.compute(0, inputs, 0)
    ops = prog.correct_ops(0, inputs, 1, inputs[1], inputs[1], 0)
    corrected = prog.correct(0, next_block, inputs, [(1, inputs[1], inputs[1])], 0)
    assert ops == 0.0
    np.testing.assert_array_equal(corrected, next_block)


def test_speculation_accepted_with_loose_threshold_small_dt():
    """Slow motion + θ=0.01 gives a low rejection rate (paper: ~2%)."""
    prog, caps = make_program(n=64, p=4, iterations=6, dt=0.005, threshold=0.01)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(caps, latency=0.5)))
    assert prog.spec_stats.particles_checked > 0
    assert prog.spec_stats.incorrect_fraction < 0.3


def test_tighter_threshold_more_rejections():
    def frac(theta):
        prog, caps = make_program(n=48, p=3, iterations=5, dt=0.01, threshold=theta)
        run(RunConfig(prog, fw=1, cluster=make_cluster(caps, latency=0.5)))
        return prog.spec_stats.incorrect_fraction

    loose = frac(0.05)
    tight = frac(0.0005)
    assert tight >= loose


def test_gather_preserves_masses_and_constants():
    prog, caps = make_program()
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(caps, latency=0.1)))
    final = prog.gather(result.results)
    np.testing.assert_array_equal(final.mass, prog.system.mass)
    assert final.G == prog.system.G
    assert final.softening == prog.system.softening


def test_momentum_conserved_in_parallel_run():
    prog, caps = make_program(threshold=0.0)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(caps, latency=0.3)))
    final = prog.gather(result.results)
    np.testing.assert_allclose(final.momentum(), prog.system.momentum(), atol=1e-9)


def test_speculation_gap_handling_fw2():
    """With FW=2 the speculation may bridge a 2-iteration gap (Eq. 10
    applied over gap*dt); θ=0 keeps the run close to the reference
    (exact up to tainted-send propagation, see above)."""
    prog, caps = make_program(n=24, p=2, iterations=6, threshold=0.0)
    cluster = make_cluster(caps, latency=2.0)
    result = run(RunConfig(prog, fw=2, cluster=cluster))
    final = prog.gather(result.results)
    ref = prog.reference()
    np.testing.assert_allclose(final.pos, ref.pos, atol=1e-4)


def test_record_force_errors_flag():
    prog, caps = make_program(n=32, p=2, iterations=4, threshold=0.05,
                              record_force_errors=True)
    run(RunConfig(prog, fw=1, cluster=make_cluster(caps, latency=0.5)))
    # Accepted speculations exist, so a force error was recorded.
    assert prog.spec_stats.max_accepted_force_error >= 0.0
    if prog.spec_stats.particles_rejected < prog.spec_stats.particles_checked:
        assert prog.spec_stats.max_accepted_force_error > 0.0


def test_force_error_scales_with_threshold():
    """Looser θ admits larger accepted force errors (Table 3's trend)."""
    def max_err(theta):
        prog, caps = make_program(
            n=48, p=3, iterations=6, dt=0.02, threshold=theta,
            record_force_errors=True,
        )
        run(RunConfig(prog, fw=1, cluster=make_cluster(caps, latency=0.5)))
        return prog.spec_stats.max_accepted_force_error

    assert max_err(0.1) >= max_err(0.001)


def test_cost_model_values():
    prog, caps = make_program(n=48, p=3)
    n_own = len(prog.partition.indices(0))
    assert prog.compute_ops(0) == pytest.approx(70.0 * n_own * 48 + 12.0 * n_own)
    n_k = len(prog.partition.indices(1))
    assert prog.speculate_ops(0, 1) == pytest.approx(12.0 * n_k)
    assert prog.check_ops(0, 1) == pytest.approx(24.0 * n_k)
    assert prog.block_nbytes(1) == 48 * n_k + 64


def test_heterogeneous_capacities_allocation():
    system = uniform_cube(100, seed=1, softening=0.1)
    prog = NBodyProgram(system, [4e6, 1e6], 3)
    counts = prog.partition.counts
    assert counts[0] == 80 and counts[1] == 20


def test_cold_disk_speculation_very_accurate():
    """Near-circular orbits: constant-velocity speculation rarely rejected."""
    system = cold_disk(50, seed=3)
    prog = NBodyProgram(system, [1e6, 1e6], 5, dt=0.001, threshold=0.01)
    cluster = make_cluster([1e6, 1e6], latency=0.5)
    run(RunConfig(prog, fw=1, cluster=cluster))
    assert prog.spec_stats.incorrect_fraction < 0.05
