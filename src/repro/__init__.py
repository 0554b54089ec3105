"""repro — speculative computation for masking communication delays.

A production-quality reproduction of *"Speculative Computation:
Overcoming Communication Delays in Parallel Algorithms"* (Vasudha
Govindan and Mark A. Franklin, WUCS-94-3, Washington University in
St. Louis, 1994).

Quick start::

    from repro import NBodyProgram, RunConfig, run, uniform_cube, wustl_1994

    platform = wustl_1994(p=8)
    system = uniform_cube(500, seed=0, softening=0.1)
    program = NBodyProgram(system, platform.capacities(),
                           iterations=10, dt=0.01, threshold=0.01)
    blocking    = run(RunConfig(program, fw=0, cluster=platform.cluster()))
    speculative = run(RunConfig(program, fw=1, cluster=platform.cluster()))
    print(blocking.wall_seconds, "->", speculative.wall_seconds)
    print(speculative.steady_breakdown().totals)   # per-iteration phases

Every backend (``backend="des" | "loopback" | "mp"``) returns the same
:class:`RunReport`, in its own clock.

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.api` — :func:`run` and :class:`RunConfig`, the one way
  to run a program on any backend.
* :mod:`repro.core` — the speculation framework (speculators,
  checkers, results).
* :mod:`repro.apps` — N-body, heat equation, Jacobi, Kuramoto.
* :mod:`repro.vm` / :mod:`repro.netsim` / :mod:`repro.des` — the
  simulated cluster substrate.
* :mod:`repro.perfmodel` — the Section-4 analytic model.
* :mod:`repro.parallel` — real multiprocessing backend
  (``backend="mp"``).
* :mod:`repro.harness` — every table/figure of the paper as a runnable
  experiment.
"""

from repro.api import BACKENDS, RunConfig, RunReport, run
from repro.apps import (
    CoupledMapLattice,
    HeatEquation1D,
    JacobiSolver,
    KuramotoProgram,
    NBodyProgram,
    WaveEquation1D,
)
from repro.core import (
    LinearExtrapolation,
    PolynomialExtrapolation,
    SpecStats,
    Speculator,
    SyncIterativeProgram,
    ZeroOrderHold,
    speedup,
    speedup_max,
)
from repro.nbody import ParticleSystem, plummer_sphere, two_clusters, uniform_cube
from repro.perfmodel import ModelParams, PerformanceModel, section4_params
from repro.platforms import PlatformConfig, two_processor_demo, wustl_1994
from repro.vm import Cluster, ProcessorSpec, linear_gradient_specs, uniform_specs

__version__ = "1.0.0"

__all__ = [
    "BACKENDS",
    "Cluster",
    "CoupledMapLattice",
    "HeatEquation1D",
    "JacobiSolver",
    "KuramotoProgram",
    "LinearExtrapolation",
    "ModelParams",
    "NBodyProgram",
    "WaveEquation1D",
    "ParticleSystem",
    "PerformanceModel",
    "PlatformConfig",
    "PolynomialExtrapolation",
    "ProcessorSpec",
    "RunConfig",
    "RunReport",
    "SpecStats",
    "Speculator",
    "SyncIterativeProgram",
    "ZeroOrderHold",
    "linear_gradient_specs",
    "plummer_sphere",
    "run",
    "section4_params",
    "speedup",
    "speedup_max",
    "two_clusters",
    "two_processor_demo",
    "uniform_cube",
    "uniform_specs",
    "wustl_1994",
    "__version__",
]
