"""Time integrators and the serial reference simulation.

The paper updates "velocity and positions of its particles based on
the forces" once per timestep — the semi-implicit (symplectic) Euler
scheme::

    v(t+1) = v(t) + a(t) Δt
    x(t+1) = x(t) + v(t+1) Δt

A leapfrog (kick-drift-kick) variant is provided for
energy-conservation comparisons.
"""

from __future__ import annotations

from repro.nbody.forces import accelerations
from repro.nbody.particles import ParticleSystem


def symplectic_euler_step(system: ParticleSystem, dt: float) -> ParticleSystem:
    """One semi-implicit Euler step; returns a new system."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    a = accelerations(system.pos, system.mass, G=system.G, softening=system.softening)
    vel = system.vel + a * dt
    pos = system.pos + vel * dt
    return ParticleSystem(
        mass=system.mass, pos=pos, vel=vel, G=system.G, softening=system.softening
    )


def leapfrog_step(system: ParticleSystem, dt: float) -> ParticleSystem:
    """One kick-drift-kick leapfrog step; returns a new system."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    a0 = accelerations(system.pos, system.mass, G=system.G, softening=system.softening)
    v_half = system.vel + 0.5 * dt * a0
    pos = system.pos + dt * v_half
    a1 = accelerations(pos, system.mass, G=system.G, softening=system.softening)
    vel = v_half + 0.5 * dt * a1
    return ParticleSystem(
        mass=system.mass, pos=pos, vel=vel, G=system.G, softening=system.softening
    )


def simulate(
    system: ParticleSystem,
    dt: float,
    steps: int,
    method: str = "euler",
) -> ParticleSystem:
    """Serial reference: advance ``steps`` timesteps on one process.

    This is the ground truth the parallel (and speculative) runs are
    validated against.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    stepper = {"euler": symplectic_euler_step, "leapfrog": leapfrog_step}.get(method)
    if stepper is None:
        raise ValueError(f"unknown method {method!r}")
    current = system
    for _ in range(steps):
        current = stepper(current, dt)
    return current
