"""Speculative computation for synchronous iterative algorithms.

This package is the paper's primary contribution, implemented as a
reusable framework:

* :mod:`repro.core.speculators` — speculation functions x*_k(t) built
  from the backward window of past received values (zero-order hold,
  linear / constant-velocity, polynomial, weighted history).
* :mod:`repro.core.checkers` — generic error metrics comparing
  speculated against actual values.
* :mod:`repro.core.program` — the application interface: an
  application supplies its compute / speculate / check / correct
  kernels plus an operation-count cost model.
* :mod:`repro.core.driver` — the synchronous-iterative drivers:
  ``FW = 0`` reproduces the blocking algorithm of Fig. 1 / Fig. 7, and
  ``FW >= 1`` the speculative algorithm of Fig. 3 with forward-window
  pipelining (Fig. 4) and cascade recomputation on rejected
  speculations.
* :mod:`repro.core.results` — the run report, speculation statistics and
  speedup calculations.
"""

from repro.core.checkers import (
    ErrorMetric,
    MaxAbsoluteError,
    MaxRelativeError,
    RmsError,
)
from repro.core.driver import SpeculativeDriver, run_program
from repro.core.program import SyncIterativeProgram
from repro.core.receive_driven import IncrementalProgram, ReceiveDrivenDriver
from repro.core.results import RunReport, SpecStats, speedup, speedup_max
from repro.core.speculators import (
    DampedLinear,
    LinearExtrapolation,
    PolynomialExtrapolation,
    Speculator,
    WeightedHistory,
    ZeroOrderHold,
)

__all__ = [
    "DampedLinear",
    "ErrorMetric",
    "IncrementalProgram",
    "LinearExtrapolation",
    "MaxAbsoluteError",
    "MaxRelativeError",
    "PolynomialExtrapolation",
    "ReceiveDrivenDriver",
    "RmsError",
    "RunReport",
    "SpecStats",
    "Speculator",
    "SpeculativeDriver",
    "SyncIterativeProgram",
    "WeightedHistory",
    "ZeroOrderHold",
    "run_program",
    "speedup",
    "speedup_max",
]
