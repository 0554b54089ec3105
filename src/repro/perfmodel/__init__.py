"""The paper's empirical performance model (Section 4, Eq. 3–9).

Estimates per-iteration execution time of a synchronous iterative
algorithm with and without speculative computation, on p heterogeneous
processors with capacity-proportional load balancing, and the derived
speedups (Fig. 5, Fig. 6).  :mod:`repro.perfmodel.calibrate` fits the
model's communication term from measured runs for the model-vs-measured
comparison (Fig. 9).
"""

from repro.perfmodel.calibrate import calibrate_tcomm, model_vs_measured
from repro.perfmodel.extended import ExtendedPerformanceModel, VariabilityParams
from repro.perfmodel.model import (
    LinearCommTime,
    ModelParams,
    PerformanceModel,
    iteration_time,
    section4_params,
)

__all__ = [
    "ExtendedPerformanceModel",
    "LinearCommTime",
    "VariabilityParams",
    "ModelParams",
    "PerformanceModel",
    "calibrate_tcomm",
    "iteration_time",
    "model_vs_measured",
    "section4_params",
]
