"""Particle systems and initial-condition generators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nbody.forces import potential_energy


@dataclass
class ParticleSystem:
    """State of an N-body system.

    Attributes
    ----------
    mass:
        (n,) particle masses.
    pos / vel:
        (n, 3) positions and velocities.
    G / softening:
        Physics constants carried with the system so diagnostics and
        integrators agree on them.
    """

    mass: np.ndarray
    pos: np.ndarray
    vel: np.ndarray
    G: float = 1.0
    softening: float = 0.01

    def __post_init__(self) -> None:
        self.mass = np.asarray(self.mass, dtype=float)
        self.pos = np.asarray(self.pos, dtype=float)
        self.vel = np.asarray(self.vel, dtype=float)
        n = self.mass.shape[0]
        if self.mass.ndim != 1:
            raise ValueError("mass must be 1-D")
        if self.pos.shape != (n, 3) or self.vel.shape != (n, 3):
            raise ValueError("pos and vel must be (n, 3)")
        if np.any(self.mass <= 0):
            raise ValueError("masses must be positive")
        if self.softening < 0:
            raise ValueError("softening must be >= 0")

    @property
    def n(self) -> int:
        """Number of particles."""
        return int(self.mass.shape[0])

    def copy(self) -> "ParticleSystem":
        """Deep copy (arrays duplicated)."""
        return ParticleSystem(
            mass=self.mass.copy(),
            pos=self.pos.copy(),
            vel=self.vel.copy(),
            G=self.G,
            softening=self.softening,
        )

    # ------------------------------------------------------------ diagnostics
    def kinetic_energy(self) -> float:
        """Σ ½ m v²."""
        return float(0.5 * np.sum(self.mass * np.einsum("ij,ij->i", self.vel, self.vel)))

    def potential(self) -> float:
        """Total softened potential energy."""
        return potential_energy(self.pos, self.mass, G=self.G, softening=self.softening)

    def total_energy(self) -> float:
        """Kinetic + potential (conserved by good integrators)."""
        return self.kinetic_energy() + self.potential()

    def momentum(self) -> np.ndarray:
        """(3,) total linear momentum (conserved exactly by pair forces)."""
        return np.einsum("i,ij->j", self.mass, self.vel)


def uniform_cube(
    n: int,
    seed: int = 0,
    G: float = 1.0,
    softening: float = 0.05,
) -> ParticleSystem:
    """n equal-mass particles uniform in the unit cube centred on the
    origin, with N(0, 0.05) velocities.

    The gentle velocity scale keeps trajectories smooth over a
    timestep — the regime where the paper's constant-velocity
    speculation is accurate.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-0.5, 0.5, size=(n, 3))
    vel = rng.normal(0.0, 0.05, size=(n, 3))
    mass = np.full(n, 1.0 / n)
    return ParticleSystem(mass=mass, pos=pos, vel=vel, G=G, softening=softening)


def plummer_sphere(
    n: int,
    seed: int = 0,
    total_mass: float = 1.0,
    G: float = 1.0,
    softening: float = 0.05,
) -> ParticleSystem:
    """Plummer-model cluster of scale radius 1 in approximate virial
    equilibrium.

    Standard Aarseth–Hénon–Wielen sampling: radii from the inverse
    cumulative mass profile, isotropic velocities from the local escape
    speed via von Neumann rejection.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    # Radii: M(r)/M = r^3/(r^2+1)^{3/2}  ->  r = 1 / sqrt(x^{-2/3} - 1)
    x = rng.uniform(0.0, 1.0, size=n)
    x = np.clip(x, 1e-10, 1 - 1e-10)
    r = 1.0 / np.sqrt(x ** (-2.0 / 3.0) - 1.0)
    r = np.minimum(r, 10.0)  # clip the far tail
    pos = r[:, None] * _random_unit_vectors(rng, n)

    # Velocities: f(q) ~ q^2 (1-q^2)^{7/2}, v = q * v_esc(r)
    q = np.empty(n)
    filled = 0
    while filled < n:
        trial_q = rng.uniform(0.0, 1.0, size=2 * (n - filled))
        trial_y = rng.uniform(0.0, 0.1, size=2 * (n - filled))
        ok = trial_y < trial_q**2 * (1.0 - trial_q**2) ** 3.5
        take = trial_q[ok][: n - filled]
        q[filled : filled + take.size] = take
        filled += take.size
    v_esc = np.sqrt(2.0 * G * total_mass) * (r**2 + 1.0) ** (-0.25)
    vel = (q * v_esc)[:, None] * _random_unit_vectors(rng, n)

    mass = np.full(n, total_mass / n)
    return ParticleSystem(mass=mass, pos=pos, vel=vel, G=G, softening=softening)


def two_clusters(
    n: int,
    seed: int = 0,
    separation: float = 4.0,
    G: float = 1.0,
    softening: float = 0.05,
) -> ParticleSystem:
    """Two Plummer spheres closing at speed 0.2 (merger scenario)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    n1 = n // 2
    a = plummer_sphere(n1, seed=seed, total_mass=0.5, G=G, softening=softening)
    b = plummer_sphere(n - n1, seed=seed + 1, total_mass=0.5, G=G, softening=softening)
    offset = np.array([separation / 2, 0.0, 0.0])
    kick = np.array([0.1, 0.0, 0.0])
    pos = np.vstack([a.pos - offset, b.pos + offset])
    vel = np.vstack([a.vel + kick, b.vel - kick])
    mass = np.concatenate([a.mass, b.mass])
    return ParticleSystem(mass=mass, pos=pos, vel=vel, G=G, softening=softening)


def _random_unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 3) isotropic unit vectors."""
    v = rng.normal(size=(n, 3))
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    return v / norm
