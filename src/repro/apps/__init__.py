"""Synchronous iterative applications on the speculation framework.

* :class:`NBodyProgram` — the paper's Section-5 case study: O(N²)
  gravitational N-body with Eq. 10 speculation, Eq. 11 checking and
  exact incremental force correction.
* :class:`HeatEquation1D` — strip-decomposed Jacobi iteration for the
  1-D heat equation (neighbor-coupled topology).
* :class:`JacobiSolver` — dense Jacobi iteration for Ax = b
  (all-to-all topology, converging dynamics).
* :class:`KuramotoProgram` — globally coupled phase oscillators
  (slowly drifting phases: a favourable speculation target).
* :class:`WaveEquation1D` — leapfrog wave equation: traveling waves
  keep ghost values changing smoothly (the extrapolation showcase).
* :class:`CoupledMapLattice` — chaotic logistic lattice: the negative
  control where history-based speculation *must* fail.
"""

from repro.apps.cml import CoupledMapLattice
from repro.apps.heat import HeatEquation1D
from repro.apps.jacobi import JacobiSolver
from repro.apps.kuramoto import KuramotoProgram
from repro.apps.nbody_app import NBodyProgram
from repro.apps.wave import WaveEquation1D

__all__ = [
    "CoupledMapLattice",
    "HeatEquation1D",
    "JacobiSolver",
    "KuramotoProgram",
    "NBodyProgram",
    "WaveEquation1D",
]
