"""specbound: static speculation-resource bound analysis.

Interprocedural buffer-bound analysis over the specflow CFG + call
graph proving that every container the protocol grows is bounded by a
protocol parameter (SPB401–SPB408), plus the symbolic bound language
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
from repro.analysis.bounds.summaries import (
    BufferSummary,
    compute_buffer_summaries,
)
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
    "BufferSummary",
    "Const",
    "Expr",
    "Max",
    "Mul",
    "OCCUPANCY_BOUNDS",
    "PARAMS",
    "Param",
    "cascade_bound",
    "check_occupancy",
    "compute_buffer_summaries",
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
