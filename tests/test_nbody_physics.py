"""Unit tests for the N-body physics substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nbody import (
    ParticleSystem,
    accelerations,
    accelerations_from_sources,
    leapfrog_step,
    pairwise_error_ratios,
    plummer_sphere,
    potential_energy,
    simulate,
    speculate_positions,
    symplectic_euler_step,
    two_clusters,
    uniform_cube,
)


# ------------------------------------------------------------------- forces
def test_two_body_acceleration_magnitude():
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    mass = np.array([1.0, 2.0])
    a = accelerations(pos, mass, G=1.0, softening=0.0)
    # particle 0 pulled toward particle 1 with Gm2/r^2 = 2
    np.testing.assert_allclose(a[0], [2.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(a[1], [-1.0, 0.0, 0.0], atol=1e-12)


def test_accelerations_newton_third_law():
    rng = np.random.default_rng(1)
    pos = rng.normal(size=(20, 3))
    mass = rng.uniform(0.5, 2.0, size=20)
    a = accelerations(pos, mass, softening=0.01)
    # Total force sums to zero.
    np.testing.assert_allclose(np.einsum("i,ij->j", mass, a), 0.0, atol=1e-10)


def test_softening_keeps_close_encounters_finite():
    pos = np.array([[0.0, 0.0, 0.0], [1e-12, 0.0, 0.0]])
    mass = np.array([1.0, 1.0])
    a = accelerations(pos, mass, softening=0.1)
    assert np.all(np.isfinite(a))


def test_sources_split_equals_full_sum():
    """Partial sums over source blocks add up to the full acceleration."""
    rng = np.random.default_rng(2)
    pos = rng.normal(size=(30, 3))
    mass = rng.uniform(0.5, 1.5, size=30)
    full = accelerations(pos, mass, softening=0.05)
    targets = pos[:10]
    own = accelerations_from_sources(
        targets, pos[:10], mass[:10], softening=0.05, exclude_self_pairs=True
    )
    rest = accelerations_from_sources(targets, pos[10:], mass[10:], softening=0.05)
    np.testing.assert_allclose(own + rest, full[:10], rtol=1e-10)


def test_force_input_validation():
    with pytest.raises(ValueError):
        accelerations_from_sources(np.zeros((2, 2)), np.zeros((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        accelerations_from_sources(np.zeros((2, 3)), np.zeros((2, 2)), np.ones(2))
    with pytest.raises(ValueError):
        accelerations_from_sources(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(3))
    with pytest.raises(ValueError):
        accelerations_from_sources(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2), softening=-1)
    with pytest.raises(ValueError):
        accelerations_from_sources(
            np.zeros((2, 3)), np.zeros((3, 3)), np.ones(3), exclude_self_pairs=True
        )


def test_empty_blocks_zero_acceleration():
    out = accelerations_from_sources(np.zeros((0, 3)), np.zeros((5, 3)), np.ones(5))
    assert out.shape == (0, 3)
    out = accelerations_from_sources(np.zeros((4, 3)), np.zeros((0, 3)), np.ones(0))
    np.testing.assert_array_equal(out, np.zeros((4, 3)))


def test_potential_energy_two_body():
    pos = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    mass = np.array([3.0, 4.0])
    # -G m1 m2 / r = -6
    assert potential_energy(pos, mass, softening=0.0) == pytest.approx(-6.0)


def test_potential_energy_single_particle_zero():
    assert potential_energy(np.zeros((1, 3)), np.ones(1)) == 0.0


# ---------------------------------------------------------------- particles
def test_particle_system_validation():
    with pytest.raises(ValueError):
        ParticleSystem(mass=np.ones((2, 2)), pos=np.zeros((2, 3)), vel=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ParticleSystem(mass=np.ones(2), pos=np.zeros((3, 3)), vel=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ParticleSystem(mass=np.array([1.0, -1.0]), pos=np.zeros((2, 3)), vel=np.zeros((2, 3)))


def test_particle_system_copy_independent():
    ps = uniform_cube(5, seed=0)
    cp = ps.copy()
    cp.pos[0, 0] = 99.0
    assert ps.pos[0, 0] != 99.0


def test_generators_basic_shapes():
    for gen in (uniform_cube, plummer_sphere):
        ps = gen(50, seed=3)
        assert ps.n == 50
        assert ps.pos.shape == (50, 3)
        assert np.all(np.isfinite(ps.pos))
        assert np.all(np.isfinite(ps.vel))
    ps = two_clusters(51, seed=3)
    assert ps.n == 51


def test_generators_deterministic():
    a = plummer_sphere(30, seed=7)
    b = plummer_sphere(30, seed=7)
    np.testing.assert_array_equal(a.pos, b.pos)
    np.testing.assert_array_equal(a.vel, b.vel)


def test_generator_validation():
    with pytest.raises(ValueError):
        uniform_cube(0)
    with pytest.raises(ValueError):
        plummer_sphere(0)
    with pytest.raises(ValueError):
        two_clusters(1)


def test_plummer_roughly_virialised():
    ps = plummer_sphere(400, seed=11, softening=0.01)
    ke = ps.kinetic_energy()
    pe = ps.potential()
    # Virial theorem: 2 KE + PE ~ 0 (loose bound for a finite sample).
    assert abs(2 * ke + pe) < 0.5 * abs(pe)


def test_two_clusters_separated():
    ps = two_clusters(100, seed=5, separation=6.0)
    x = ps.pos[:, 0]
    assert x.min() < -1.0 and x.max() > 1.0


# --------------------------------------------------------------- integrators
def test_symplectic_euler_conserves_momentum():
    ps = uniform_cube(30, seed=4)
    before = ps.momentum()
    after = simulate(ps, dt=0.01, steps=10).momentum()
    np.testing.assert_allclose(before, after, atol=1e-10)


def test_leapfrog_energy_drift_small():
    ps = plummer_sphere(60, seed=9, softening=0.1)
    e0 = ps.total_energy()
    out = simulate(ps, dt=0.005, steps=50, method="leapfrog")
    e1 = out.total_energy()
    assert abs(e1 - e0) / abs(e0) < 0.02


def test_leapfrog_more_accurate_than_euler():
    ps = plummer_sphere(50, seed=10, softening=0.1)
    e0 = ps.total_energy()
    euler = simulate(ps, dt=0.01, steps=30, method="euler")
    frog = simulate(ps, dt=0.01, steps=30, method="leapfrog")
    assert abs(frog.total_energy() - e0) <= abs(euler.total_energy() - e0) + 1e-12


def test_integrator_validation():
    ps = uniform_cube(5)
    with pytest.raises(ValueError):
        symplectic_euler_step(ps, dt=0)
    with pytest.raises(ValueError):
        leapfrog_step(ps, dt=-1)
    with pytest.raises(ValueError):
        simulate(ps, dt=0.1, steps=-1)
    with pytest.raises(ValueError):
        simulate(ps, dt=0.1, steps=1, method="rk4")


def test_simulate_zero_steps_identity():
    ps = uniform_cube(5, seed=0)
    out = simulate(ps, dt=0.1, steps=0)
    np.testing.assert_array_equal(out.pos, ps.pos)


# ---------------------------------------------------------------- speculation
def test_speculate_positions_formula():
    pos = np.array([[1.0, 0.0, 0.0]])
    vel = np.array([[2.0, -1.0, 0.5]])
    out = speculate_positions(pos, vel, dt=0.1)
    np.testing.assert_allclose(out, [[1.2, -0.1, 0.05]])


def test_speculate_positions_validation():
    with pytest.raises(ValueError):
        speculate_positions(np.zeros((2, 3)), np.zeros((3, 3)), 0.1)
    with pytest.raises(ValueError):
        speculate_positions(np.zeros((2, 3)), np.zeros((2, 3)), 0.0)


def test_speculation_exact_for_constant_velocity():
    """A free particle moving at constant velocity is speculated exactly."""
    pos = np.array([[0.0, 0.0, 0.0]])
    vel = np.array([[1.0, 2.0, 3.0]])
    dt = 0.05
    spec = speculate_positions(pos, vel, dt)
    actual = pos + vel * dt
    np.testing.assert_allclose(spec, actual)


def test_pairwise_error_ratio_formula():
    spec = np.array([[1.1, 0.0, 0.0]])
    act = np.array([[1.0, 0.0, 0.0]])
    local = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    # displacement 0.1; nearest local at distance 1.0
    ratios = pairwise_error_ratios(spec, act, local)
    np.testing.assert_allclose(ratios, [0.1])
    assert pairwise_error_ratios(spec, act, local).max() == pytest.approx(0.1)


def test_pairwise_error_zero_for_exact_speculation():
    act = np.random.default_rng(0).normal(size=(5, 3))
    local = np.random.default_rng(1).normal(size=(4, 3))
    assert pairwise_error_ratios(act, act, local).max() == 0.0


def test_pairwise_error_empty_inputs():
    assert pairwise_error_ratios(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((3, 3))).size == 0
    out = pairwise_error_ratios(np.ones((2, 3)), np.ones((2, 3)), np.zeros((0, 3)))
    np.testing.assert_array_equal(out, [0.0, 0.0])
    assert pairwise_error_ratios(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3))).size == 0


def test_pairwise_error_validation():
    with pytest.raises(ValueError):
        pairwise_error_ratios(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        pairwise_error_ratios(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((1, 3)))


@settings(max_examples=50, deadline=None)
@given(dt=st.floats(0.001, 0.1), vmag=st.floats(0.0, 2.0))
def test_property_speculation_error_scales_with_dt_and_accel(dt, vmag):
    """Speculation error over one step is bounded by |a| dt^2 (Euler)."""
    pos = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    vel = np.array([[0.0, vmag, 0.0], [0.0, -vmag, 0.0]])
    mass = np.array([1.0, 1.0])
    ps = ParticleSystem(mass=mass, pos=pos, vel=vel, softening=0.1)
    nxt = symplectic_euler_step(ps, dt)
    spec = speculate_positions(ps.pos, ps.vel, dt)
    err = np.linalg.norm(spec - nxt.pos, axis=1)
    a = accelerations(ps.pos, mass, softening=0.1)
    bound = np.linalg.norm(a, axis=1) * dt * dt + 1e-12
    assert np.all(err <= bound * (1 + 1e-9))
