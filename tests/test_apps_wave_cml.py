"""Tests for the wave-equation and coupled-map-lattice applications."""

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.apps import CoupledMapLattice, WaveEquation1D
from repro.core import LinearExtrapolation
from repro.netsim import ConstantLatency, DelayNetwork
from repro.vm import Cluster, uniform_specs


def make_cluster(p, latency=0.0, capacity=1e6):
    return Cluster(
        uniform_specs(p, capacity=capacity),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(latency)),
    )


def gaussian_pulse(n=96, center=0.3, width=0.05):
    x = np.linspace(0.0, 1.0, n)
    return np.exp(-((x - center) ** 2) / (2 * width**2))


# ------------------------------------------------------------------- wave
def wave_program(n=96, p=4, iterations=30, **kw):
    kw.setdefault("threshold", 0.0)
    return WaveEquation1D(gaussian_pulse(n), [1e6] * p, iterations, courant=0.9, **kw)


def test_wave_validation():
    with pytest.raises(ValueError):
        WaveEquation1D(np.zeros((2, 2)), [1.0], 5)
    with pytest.raises(ValueError):
        WaveEquation1D(np.zeros(10), [1.0, 1.0], 5, courant=1.5)


def test_wave_topology():
    prog = wave_program(p=4)
    assert prog.needed(0) == frozenset({1})
    assert prog.needed(2) == frozenset({1, 3})


def test_wave_fw0_matches_reference():
    prog = wave_program()
    result = run(RunConfig(prog, fw=0, cluster=make_cluster(4, latency=0.05)))
    np.testing.assert_allclose(prog.gather(result.results), prog.reference(), atol=1e-12)


def test_wave_fw1_theta_zero_exact():
    prog = wave_program()
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(4, latency=0.4)))
    np.testing.assert_allclose(prog.gather(result.results), prog.reference(), atol=1e-10)


def test_wave_incremental_correction_exact():
    prog = wave_program(p=2)
    inputs = {0: prog.initial_block(0), 1: prog.initial_block(1)}
    wrong = inputs[1].copy()
    wrong[0, 0] += 0.2
    tainted = dict(inputs)
    tainted[1] = wrong
    bad = prog.compute(0, tainted, 0)
    ops = prog.correct_ops(0, inputs, 1, wrong, inputs[1], 0)
    fixed = prog.correct(0, bad, inputs, [(1, wrong, inputs[1])], 0)
    clean = prog.compute(0, inputs, 0)
    np.testing.assert_allclose(fixed, clean, atol=1e-14)
    assert ops == 4.0


def test_wave_energy_approximately_conserved():
    prog = wave_program(iterations=100)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(4)))
    e_final = prog.energy(result.results)
    initial_blocks = {r: prog.initial_block(r) for r in range(4)}
    e_initial = prog.energy(initial_blocks)
    assert e_final == pytest.approx(e_initial, rel=0.05)


def test_wave_pulse_travels():
    """The pulse peak moves across the domain (dynamics are not decay)."""
    prog = wave_program(iterations=40)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(4)))
    u = prog.gather(result.results)
    start_peak = int(np.argmax(gaussian_pulse()))
    # The single initial pulse splits into two traveling halves.
    assert abs(int(np.argmax(np.abs(u))) - start_peak) > 5


def test_wave_linear_extrapolation_beats_hold():
    """On a traveling wave the ghost value moves every step: a hold is
    wrong by the first difference of the series while linear
    extrapolation is wrong only by the second difference (~6x smaller
    for this pulse).  Measured at theta = 0 so corrections keep the
    trajectory exact and the error statistics uncontaminated."""
    from repro.core import ZeroOrderHold

    def median_error(speculator):
        errors = []

        class Instrumented(WaveEquation1D):
            def check(self, rank, k, speculated, actual, own):
                e = super().check(rank, k, speculated, actual, own)
                errors.append(e)
                return e

        prog = Instrumented(
            gaussian_pulse(96, width=0.08), [1e6] * 4, 60,
            courant=1.0, threshold=0.0, speculator=speculator,
        )
        run(RunConfig(prog, fw=1, cluster=make_cluster(4, latency=0.4)))
        return float(np.median(errors))

    err_hold = median_error(ZeroOrderHold())
    err_linear = median_error(LinearExtrapolation())
    assert err_linear < 0.4 * err_hold


def test_wave_accepted_errors_persist_in_conservative_dynamics():
    """Unlike dissipative problems (heat), the wave equation conserves
    perturbations: errors accepted under a loose theta accumulate and
    travel instead of decaying, so the final deviation from the serial
    reference grows far beyond a single step's tolerance."""
    def final_deviation(theta):
        prog = wave_program(iterations=80, threshold=theta)
        result = run(RunConfig(prog, fw=1, cluster=make_cluster(4, latency=0.4)))
        return float(np.max(np.abs(prog.gather(result.results) - prog.reference())))

    exact = final_deviation(0.0)
    loose = final_deviation(2e-2)
    assert exact < 1e-10
    assert loose > 10 * 2e-2 * 0.01  # clearly nonzero accumulated drift
    assert loose > exact


# -------------------------------------------------------------------- CML
def cml_program(n=64, p=4, iterations=20, **kw):
    rng = np.random.default_rng(9)
    initial = rng.uniform(0.2, 0.8, size=n)
    kw.setdefault("threshold", 0.0)
    return CoupledMapLattice(initial, [1e6] * p, iterations, **kw)


def test_cml_validation():
    with pytest.raises(ValueError):
        CoupledMapLattice(np.array([0.5, 1.5]), [1.0], 5)  # out of (0,1)
    with pytest.raises(ValueError):
        cml_program(r=5.0)
    with pytest.raises(ValueError):
        cml_program(coupling=1.5)


def test_cml_periodic_topology():
    prog = cml_program(p=4)
    assert prog.needed(0) == frozenset({1, 3})
    assert prog.needed(3) == frozenset({2, 0})
    prog2 = cml_program(p=2)
    assert prog2.needed(0) == frozenset({1})


def test_cml_fw0_matches_reference():
    prog = cml_program()
    result = run(RunConfig(prog, fw=0, cluster=make_cluster(4, latency=0.05)))
    np.testing.assert_allclose(prog.gather(result.results), prog.reference(), atol=1e-12)


def test_cml_fw1_theta_zero_exact_despite_chaos():
    """theta=0 keeps even chaotic dynamics exact: every wrong
    speculation gets corrected before the next send."""
    prog = cml_program(iterations=15)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(4, latency=0.3)))
    np.testing.assert_allclose(prog.gather(result.results), prog.reference(), atol=1e-9)


def test_cml_two_rank_periodic_exact():
    prog = cml_program(p=2, iterations=12)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(2, latency=0.3)))
    np.testing.assert_allclose(prog.gather(result.results), prog.reference(), atol=1e-9)


def test_cml_chaos_defeats_speculation():
    """The negative control: in the chaotic regime nearly every
    speculation is rejected; in the stable regime nearly none are."""
    chaotic = cml_program(r=3.9, iterations=40, threshold=1e-3)
    res_c = run(RunConfig(chaotic, fw=1, cluster=make_cluster(4, latency=0.3)))
    stable = cml_program(r=2.5, iterations=40, threshold=1e-3)
    res_s = run(RunConfig(stable, fw=1, cluster=make_cluster(4, latency=0.3)))
    assert res_c.rejection_rate > 0.6
    # Stable map converges to the fixed point: speculation succeeds
    # once the transient dies out.
    assert res_s.rejection_rate < 0.4
    assert res_s.rejection_rate < res_c.rejection_rate


def test_cml_states_remain_bounded():
    prog = cml_program(iterations=50, threshold=1e-2)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(4, latency=0.2)))
    x = prog.gather(result.results)
    assert np.all((x >= 0.0) & (x <= 1.0))
