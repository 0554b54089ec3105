"""specbound: static speculation-resource bound analysis.

Per-function rules over the specflow CFG and phase attribution that
flag a protocol buffer or loop no protocol parameter bounds (SPB402,
SPB405–SPB408), plus the trace-validated occupancy contracts
(:func:`check_occupancy`), which evaluate the protocol's five
resource bounds (:data:`OCCUPANCY_BOUNDS`) at a recorded run's
``(p, fw, bw, iters)``.
"""

from repro.analysis.bounds.contracts import (
    OCCUPANCY_BOUNDS,
    check_occupancy,
    inferred_iterations,
    observed_cascade_depth,
    observed_inbox_depths,
    observed_inflight_sends,
    observed_ring_spans,
)
from repro.analysis.bounds.rules import findings

__all__ = [
    "OCCUPANCY_BOUNDS",
    "check_occupancy",
    "findings",
    "inferred_iterations",
    "observed_cascade_depth",
    "observed_inbox_depths",
    "observed_inflight_sends",
    "observed_ring_spans",
]
