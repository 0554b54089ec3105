"""Phase-interval traces and per-phase time aggregation.

The paper's Table 2 reports, per iteration, the time spent in each
phase of the speculative protocol (computation / communication /
speculation / check).  :class:`PhaseTrace` records raw intervals from
a processor's execution; :class:`PhaseBreakdown` aggregates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

#: Canonical phase names used throughout the package.
PHASES = (
    "compute",  # evaluating one's own variables (f_comp work)
    "comm",     # blocked waiting for a message (or sending synchronously)
    "spec",     # evaluating the speculation function (f_spec work)
    "check",    # comparing speculated vs actual values (f_check work)
    "correct",  # correction / recomputation after a rejected speculation
    "idle",     # barrier / other idle time
)


@dataclass(frozen=True)
class Interval:
    """One contiguous span of a single phase on one processor."""

    phase: str
    start: float
    end: float
    iteration: Optional[int] = None

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval ends before it starts: {self}")

    @property
    def duration(self) -> float:
        """Length of the interval in virtual seconds."""
        return self.end - self.start


class PhaseTrace:
    """Append-only log of phase intervals for one processor.

    A run records one row per charge and per receive and reads them a
    few times when it is over, so :attr:`records` holds plain ``(phase,
    start, end, iteration)`` rows, the aggregates walk those in record
    order, and :class:`Interval` objects exist only once
    :attr:`intervals` is read.

    Parameters
    ----------
    rank:
        The processor rank this trace belongs to.
    """

    def __init__(self, rank: int = 0) -> None:
        self.rank = rank
        self.records: list[tuple[str, float, float, Optional[int]]] = []

    @property
    def intervals(self) -> list[Interval]:
        """The rows as :class:`Interval` records (a new list per read)."""
        return [Interval(*row) for row in self.records]

    def record(self, phase: str, start: float, end: float, iteration: Optional[int] = None) -> None:
        """Append one interval (zero-length intervals are dropped)."""
        if end < start:
            raise ValueError(f"negative-duration interval: {phase} [{start}, {end}]")
        if end == start:
            return
        # Phase intervals ARE the experiment's result payload: a run
        # records O(iterations) of them and ends; no cap wanted.
        self.records.append((phase, start, end, iteration))  # specbound: disable=SPB406

    def total(self, phase: str) -> float:
        """Total time spent in ``phase``."""
        return sum(end - start for p, start, end, _ in self.records if p == phase)

    def span(self) -> float:
        """Wall span from first interval start to last interval end."""
        if not self.records:
            return 0.0
        return max(row[2] for row in self.records) - min(row[1] for row in self.records)

    def breakdown(self) -> "PhaseBreakdown":
        """Aggregate into a :class:`PhaseBreakdown`."""
        totals = {phase: 0.0 for phase in PHASES}
        for phase, start, end, _ in self.records:
            totals[phase] = totals.get(phase, 0.0) + (end - start)
        return PhaseBreakdown(totals=totals, span=self.span())

    def iterations(self) -> list[int]:
        """Sorted distinct iteration tags present in the trace."""
        return sorted({row[3] for row in self.records if row[3] is not None})

    def for_iteration(self, iteration: int) -> "PhaseTrace":
        """A sub-trace containing only intervals tagged ``iteration``."""
        sub = PhaseTrace(self.rank)
        sub.records = [row for row in self.records if row[3] == iteration]
        return sub

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"<PhaseTrace rank={self.rank} intervals={len(self.records)}>"


@dataclass
class PhaseBreakdown:
    """Aggregated per-phase totals (the Table-2 row shape).

    Attributes
    ----------
    totals:
        Mapping phase name → total seconds.
    span:
        Wall span covered by the underlying trace.
    """

    totals: dict[str, float] = field(default_factory=dict)
    span: float = 0.0

    def __getitem__(self, phase: str) -> float:
        return self.totals.get(phase, 0.0)

    @property
    def busy(self) -> float:
        """Seconds in productive phases (everything except comm/idle)."""
        return sum(v for k, v in self.totals.items() if k not in ("comm", "idle"))

    @property
    def total(self) -> float:
        """Sum over all recorded phases."""
        return sum(self.totals.values())

    def scaled(self, factor: float) -> "PhaseBreakdown":
        """A copy with every total (and span) multiplied by ``factor``.

        Used to convert a whole-run breakdown into a per-iteration one.
        """
        return PhaseBreakdown(
            totals={k: v * factor for k, v in self.totals.items()},
            span=self.span * factor,
        )

    def as_row(self, phases: Sequence[str] = ("compute", "comm", "spec", "check")) -> list[float]:
        """Totals in Table-2 column order plus the grand total."""
        row = [self[p] for p in phases]
        row.append(self.total)
        return row


def merge_breakdowns(breakdowns: Iterable[PhaseBreakdown], how: str = "max") -> PhaseBreakdown:
    """Combine per-processor breakdowns into a cluster-level view.

    Parameters
    ----------
    breakdowns:
        One breakdown per processor.
    how:
        ``"max"`` — per-phase maximum over processors (the critical
        path view used for Table 2, where the slowest processor's phase
        time is what shows up per iteration); ``"sum"`` — total
        resource consumption; ``"mean"`` — average processor.
    """
    items = list(breakdowns)
    if not items:
        return PhaseBreakdown()
    keys = dict.fromkeys(k for b in items for k in b.totals)  # first-seen order
    if how == "max":
        totals = {k: max(b[k] for b in items) for k in keys}
        span = max(b.span for b in items)
    elif how == "sum":
        totals = {k: sum(b[k] for b in items) for k in keys}
        span = max(b.span for b in items)
    elif how == "mean":
        totals = {k: sum(b[k] for b in items) / len(items) for k in keys}
        span = sum(b.span for b in items) / len(items)
    else:
        raise ValueError(f"unknown merge mode: {how!r}")
    return PhaseBreakdown(totals=totals, span=span)
