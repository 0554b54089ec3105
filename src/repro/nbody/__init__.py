"""O(N²) gravitational N-body substrate (the paper's case study).

The paper demonstrates speculative computation on a direct-summation
N-body simulation (Section 5): every timestep computes all pairwise
gravitational forces, then updates velocities and positions.  This
package provides the physics:

* :mod:`repro.nbody.forces` — vectorized all-pairs gravity with
  Plummer softening, including block-to-block partial sums (what each
  simulated processor computes).
* :mod:`repro.nbody.particles` — particle-system container, initial
  condition generators, and conservation diagnostics.
* :mod:`repro.nbody.integrators` — symplectic Euler and leapfrog
  steps, plus a serial reference simulation.
* :mod:`repro.nbody.speculation` — Eq. 10 constant-velocity position
  speculation and the Eq. 11 pairwise error metric.
"""

from repro.nbody.forces import (
    PAIR_FLOPS,
    accelerations,
    accelerations_by_block,
    accelerations_from_sources,
    potential_energy,
)
from repro.nbody.integrators import leapfrog_step, simulate, symplectic_euler_step
from repro.nbody.particles import (
    ParticleSystem,
    cold_disk,
    plummer_sphere,
    two_clusters,
    uniform_cube,
)
from repro.nbody.speculation import pairwise_error_ratios, speculate_positions

__all__ = [
    "PAIR_FLOPS",
    "ParticleSystem",
    "accelerations",
    "accelerations_by_block",
    "accelerations_from_sources",
    "cold_disk",
    "leapfrog_step",
    "pairwise_error_ratios",
    "plummer_sphere",
    "potential_energy",
    "simulate",
    "speculate_positions",
    "symplectic_euler_step",
    "two_clusters",
    "uniform_cube",
]
