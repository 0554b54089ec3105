"""Tests for the real-process (multiprocessing) backend."""

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.apps import HeatEquation1D, NBodyProgram
from repro.core import ZeroOrderHold
from repro.nbody import uniform_cube

from tests.toy_programs import CoupledIncrement


def test_runner_validation():
    prog = CoupledIncrement(nprocs=2, iterations=2)
    with pytest.raises(ValueError):
        RunConfig(prog, backend="mp", fw=-1)
    with pytest.raises(ValueError):
        RunConfig(prog, backend="mp", cascade="partial")
    with pytest.raises(ValueError):
        RunConfig(prog, backend="mp", latency=-1)
    with pytest.raises(ValueError):
        RunConfig(prog, backend="mp", jitter=-1)


def test_fw0_matches_serial_reference():
    prog = CoupledIncrement(nprocs=2, iterations=5, coupling=0.2)
    result = run(RunConfig(prog, backend="mp", fw=0, timeout=60))
    ref = prog.reference_run()
    for rank in range(2):
        np.testing.assert_allclose(result.results[rank], ref[rank], atol=1e-12)


def test_fw1_theta_zero_exact():
    prog = CoupledIncrement(nprocs=3, iterations=5, coupling=0.3, threshold=0.0)
    result = run(RunConfig(prog, backend="mp", fw=1, latency=0.01, timeout=60))
    ref = prog.reference_run()
    for rank in range(3):
        np.testing.assert_allclose(result.results[rank], ref[rank], atol=1e-10)


def test_fw2_runs_and_is_exact_under_perfect_speculation():
    """fw=2 was rejected outright by the old worker; the engine-seated
    backend supports any forward window.  On a constant state a
    zero-order hold predicts perfectly, so even the deeper window
    changes nothing: no rejections, numerics equal the reference."""
    prog = CoupledIncrement(
        nprocs=3, iterations=6, coupling=0.0, rates=[0.0, 0.0, 0.0],
        threshold=0.0, speculator=ZeroOrderHold(),
    )
    result = run(RunConfig(prog, backend="mp", fw=2, latency=0.02, timeout=60))
    ref = prog.reference_run()
    for rank in range(3):
        np.testing.assert_allclose(result.results[rank], ref[rank],
                                   atol=1e-12)
    assert sum(s.spec_made for s in result.stats) > 0
    assert result.rejection_rate == 0.0


def test_fw1_perfect_speculation_no_rejections():
    prog = CoupledIncrement(
        nprocs=2, iterations=5, coupling=0.0, rates=[0.0, 0.0],
        threshold=0.0, speculator=ZeroOrderHold(),
    )
    result = run(RunConfig(prog, backend="mp", fw=1, latency=0.02, timeout=60))
    assert result.rejection_rate == 0.0
    total_spec = sum(s.spec_made for s in result.stats)
    assert total_spec > 0


def test_nbody_parallel_matches_reference():
    system = uniform_cube(24, seed=0, softening=0.1)
    prog = NBodyProgram(system, [1.0, 1.0], iterations=4, dt=0.01, threshold=0.0)
    result = run(RunConfig(prog, backend="mp", fw=1, latency=0.01, timeout=120))
    final = prog.gather(result.results)
    ref = prog.reference()
    np.testing.assert_allclose(final.pos, ref.pos, atol=1e-9)


def test_heat_equation_neighbor_topology_parallel():
    rng = np.random.default_rng(3)
    prog = HeatEquation1D(rng.uniform(size=32), [1.0] * 4, iterations=6, threshold=0.0)
    result = run(RunConfig(prog, backend="mp", fw=1, latency=0.005, timeout=60))
    np.testing.assert_allclose(prog.gather(result.results), prog.reference(), atol=1e-10)


def test_speculation_masks_injected_latency_wall_clock():
    """The headline claim on real processes: with an injected delay
    comparable to the compute time, FW=1 beats FW=0 in wall time."""
    def go(fw):
        prog = CoupledIncrement(
            nprocs=2, iterations=8, coupling=0.0, rates=[0.0, 0.0],
            threshold=0.0, speculator=ZeroOrderHold(), wall_compute=0.05,
        )
        return run(RunConfig(prog, backend="mp", fw=fw, latency=0.05, seed=1,
                             timeout=120))

    t0 = go(0).wall_seconds
    t1 = go(1).wall_seconds
    assert t1 < t0
    # Most of the 0.05 s/iteration injected latency should be masked
    # by the 0.05 s of real compute per iteration.
    assert t1 < 0.75 * t0


def test_phase_seconds_accounting():
    prog = CoupledIncrement(nprocs=2, iterations=6, threshold=0.0)
    result = run(RunConfig(prog, backend="mp", fw=0, latency=0.02, timeout=60))
    comm = result.breakdown(how="max")["comm"]
    assert comm == result.timings["comm"] > 0.0
    assert result.breakdown(how="sum")["comm"] >= comm
    assert result.breakdown(how="mean")["comm"] <= comm
    with pytest.raises(ValueError):
        result.breakdown(how="median")


def test_jitter_deterministic_results_despite_timing_noise():
    prog = CoupledIncrement(nprocs=2, iterations=4, coupling=0.1, threshold=0.0)
    result = run(RunConfig(prog, backend="mp", fw=1, latency=0.01, jitter=0.5, seed=7,
                           timeout=60))
    ref = prog.reference_run()
    for rank in range(2):
        np.testing.assert_allclose(result.results[rank], ref[rank], atol=1e-10)
