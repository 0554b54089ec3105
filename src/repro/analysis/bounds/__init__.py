"""specbound: static speculation-resource bound analysis.

Per-function rules over the specflow CFG and phase attribution that
flag a protocol buffer or loop no protocol parameter bounds (SPB402,
SPB405–SPB408), plus the trace-validated occupancy contracts
(:func:`check_occupancy`), which evaluate the protocol's four
resource bounds (:data:`OCCUPANCY_BOUNDS`) at the ``(p, max_fw,
iterations)`` a recorded trace's header carries.
"""

from repro.analysis.bounds.contracts import (
    OCCUPANCY_BOUNDS,
    check_occupancy,
    observed_cascade_depth,
    observed_inbox_depths,
    observed_inflight_sends,
)
from repro.analysis.bounds.rules import findings

__all__ = [
    "OCCUPANCY_BOUNDS",
    "check_occupancy",
    "findings",
    "observed_cascade_depth",
    "observed_inbox_depths",
    "observed_inflight_sends",
]
