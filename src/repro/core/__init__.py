"""Speculative computation for synchronous iterative algorithms.

This package is the paper's primary contribution, implemented as a
reusable framework:

* :mod:`repro.core.speculators` — speculation functions x*_k(t) built
  from the backward window of past received values (zero-order hold,
  linear / constant-velocity, polynomial).
* :mod:`repro.core.checkers` — a generic, scale-free error metric
  comparing speculated against actual values.
* :mod:`repro.core.program` — the application interface: an
  application supplies its compute / speculate / check / correct
  kernels plus an operation-count cost model.
* :mod:`repro.core.receive_driven` — :class:`IncrementalProgram`, the
  interface the receive-driven baseline of Fig. 7 needs.
* :mod:`repro.core.results` — the run report, speculation statistics and
  speedup calculations.
"""

from repro.core.checkers import ErrorMetric, MaxRelativeError
from repro.core.program import SyncIterativeProgram
from repro.core.receive_driven import IncrementalProgram
from repro.core.results import RunReport, SpecStats, speedup, speedup_max
from repro.core.speculators import (
    LinearExtrapolation,
    PolynomialExtrapolation,
    Speculator,
    ZeroOrderHold,
)

__all__ = [
    "ErrorMetric",
    "IncrementalProgram",
    "LinearExtrapolation",
    "MaxRelativeError",
    "PolynomialExtrapolation",
    "RunReport",
    "SpecStats",
    "Speculator",
    "SyncIterativeProgram",
    "ZeroOrderHold",
    "speedup",
    "speedup_max",
]
