"""specbound: static speculation-resource bound analysis.

Per-function rules over the specflow CFG and phase attribution that
flag a protocol buffer or loop no protocol parameter bounds (SPB402,
SPB405–SPB408), plus the symbolic bound language
(:mod:`repro.analysis.bounds.symbolic`) and the trace-validated
occupancy contracts (:func:`check_occupancy`).
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
from repro.analysis.bounds.symbolic import (
    PARAMS,
    Add,
    Const,
    Expr,
    Max,
    Mul,
    Param,
    cascade_bound,
    event_count_bound,
    history_ring_bound,
    inbox_bound,
    inflight_bound,
)

__all__ = [
    "Add",
    "Const",
    "Expr",
    "Max",
    "Mul",
    "OCCUPANCY_BOUNDS",
    "PARAMS",
    "Param",
    "cascade_bound",
    "check_occupancy",
    "event_count_bound",
    "findings",
    "history_ring_bound",
    "inbox_bound",
    "inferred_iterations",
    "inflight_bound",
    "observed_cascade_depth",
    "observed_inbox_depths",
    "observed_inflight_sends",
    "observed_ring_spans",
]
