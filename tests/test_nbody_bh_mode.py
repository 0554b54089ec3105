"""Tests for NBodyProgram's Barnes-Hut force mode."""

import numpy as np
import pytest

from repro.apps import NBodyProgram
from repro.core import ReceiveDrivenDriver, run_program
from repro.nbody import plummer_sphere, uniform_cube
from repro.netsim import ConstantLatency, DelayNetwork
from repro.vm import Cluster, uniform_specs


def make_cluster(p, latency=0.0):
    return Cluster(
        uniform_specs(p, capacity=1e6),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(latency)),
    )


def test_validation():
    system = uniform_cube(12, seed=0)
    with pytest.raises(ValueError):
        NBodyProgram(system, [1.0], 2, force_method="fmm")
    with pytest.raises(ValueError):
        NBodyProgram(system, [1.0], 2, force_method="barnes_hut", bh_theta=-1)


def test_bh_theta_zero_matches_direct_compute():
    system = uniform_cube(40, seed=1, softening=0.1)
    direct = NBodyProgram(system, [1.0, 1.0], 2, force_method="direct")
    bh = NBodyProgram(system, [1.0, 1.0], 2, force_method="barnes_hut", bh_theta=0.0)
    inputs = {r: direct.initial_block(r) for r in range(2)}
    np.testing.assert_allclose(
        bh.compute(0, inputs, 0), direct.compute(0, inputs, 0), rtol=1e-10, atol=1e-12
    )


def test_bh_run_close_to_direct_run():
    """A BH-mode parallel run tracks the direct-mode run to monopole
    accuracy over a few steps."""
    system = plummer_sphere(80, seed=2, softening=0.1)

    def run(method):
        prog = NBodyProgram(system, [1e6] * 2, 4, dt=0.005, threshold=0.0,
                            force_method=method, bh_theta=0.4)
        res = run_program(prog, make_cluster(2, latency=0.1), fw=1)
        return prog.gather(res.results)

    direct = run("direct")
    bh = run("barnes_hut")
    scale = np.abs(direct.pos).max()
    np.testing.assert_allclose(bh.pos, direct.pos, atol=0.01 * scale)


def test_bh_cost_model_uses_measured_interactions():
    system = uniform_cube(60, seed=3, softening=0.1)
    prog = NBodyProgram(system, [1.0, 1.0], 2, force_method="barnes_hut", bh_theta=0.8)
    pre = prog.compute_ops(0)  # estimate before any traversal
    inputs = {r: prog.initial_block(r) for r in range(2)}
    prog.compute(0, inputs, 0)
    post = prog.compute_ops(0)
    assert prog._bh_last_interactions[0] > 0
    assert post != pre or prog._bh_last_interactions[0] > 0
    # BH mode at a loose angle must be charged less than direct O(N^2).
    direct = NBodyProgram(system, [1.0, 1.0], 2, force_method="direct")
    assert post < direct.compute_ops(0) * 2  # sanity bound at this small N


def test_bh_mode_rejects_receive_driven():
    system = uniform_cube(20, seed=4, softening=0.1)
    prog = NBodyProgram(system, [1e6, 1e6], 2, force_method="barnes_hut")
    driver = ReceiveDrivenDriver(prog, make_cluster(2))
    with pytest.raises(NotImplementedError):
        driver.run()


def test_bh_speculation_and_correction_still_work():
    """Eq. 10/11 machinery is force-method independent."""
    system = uniform_cube(48, seed=5, softening=0.1)
    prog = NBodyProgram(system, [1e6] * 3, 5, dt=0.02, threshold=0.005,
                        force_method="barnes_hut", bh_theta=0.5)
    result = run_program(prog, make_cluster(3, latency=0.4), fw=1, cascade="none")
    assert prog.spec_stats.particles_checked > 0
    final = prog.gather(result.results)
    assert np.all(np.isfinite(final.pos))
