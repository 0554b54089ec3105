"""Execution tracing: per-phase intervals, aggregation, ASCII Gantt.

Every virtual processor records what it is doing — computing,
speculating, checking, correcting, communicating (blocked on a
message), or idle — as a sequence of timestamped intervals.  The
aggregators here turn those traces into the paper's artifacts:
Table 2's per-phase time breakdown and the Fig. 2 / Fig. 4 timelines.
"""

from repro.trace.events import EVENT_KINDS, EventLog, TraceEvent
from repro.trace.gantt import render_gantt
from repro.trace.phases import (
    PHASES,
    Interval,
    PhaseBreakdown,
    PhaseTrace,
    merge_breakdowns,
)

__all__ = [
    "EVENT_KINDS",
    "EventLog",
    "Interval",
    "PHASES",
    "PhaseBreakdown",
    "PhaseTrace",
    "TraceEvent",
    "merge_breakdowns",
    "render_gantt",
]
