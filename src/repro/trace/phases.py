"""Phase-interval traces and per-phase time aggregation.

The paper's Table 2 reports, per iteration, the time spent in each
phase of the speculative protocol (computation / communication /
speculation / check).  :class:`PhaseTrace` records raw intervals from
a processor's execution; :class:`PhaseBreakdown` aggregates them.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

#: Canonical phase names used throughout the package.
PHASES = (
    "compute",  # evaluating one's own variables (f_comp work)
    "comm",     # blocked waiting for a message (or sending synchronously)
    "spec",     # evaluating the speculation function (f_spec work)
    "check",    # comparing speculated vs actual values (f_check work)
    "correct",  # correction / recomputation after a rejected speculation
    "idle",     # barrier / other idle time
)

#: One packed row: phase code, start, end, iteration (``_UNTAGGED`` for
#: None), as four native float64s.  Codes are kept as floats because
#: ``pack`` converts an int about 15 ns slower.
_ROW = struct.Struct("4d")
_pack_row = _ROW.pack
_UNTAGGED = -1.0
_PHASE_CODES = {phase: float(code) for code, phase in enumerate(PHASES)}


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


class PhaseTrace:
    """Append-only log of phase intervals for one processor.

    A run records one row per charge and per receive and reads them a
    few times when it is over, so a row is 32 packed bytes — phase
    code, start, end and iteration (-1 when untagged) as float64s in one
    ``array`` — with the phase names in a per-trace table.  The
    aggregates read the columns through a numpy view and sum in record
    order, so each is the float a left-to-right walk over the rows
    gives; :attr:`records` tuples and :class:`Interval` objects exist
    only once they are read.  Iteration tags are non-negative ints.

    Parameters
    ----------
    rank:
        The processor rank this trace belongs to.
    """

    __slots__ = ("rank", "_rows", "_names", "_codes")

    def __init__(self, rank: int = 0) -> None:
        self.rank = rank
        self._rows = array("d")
        #: code -> phase name, and back: the canonical phases, shared by
        #: every trace until one records a phase outside them.
        self._names: tuple[str, ...] = PHASES
        self._codes = _PHASE_CODES

    @property
    def records(self) -> list[tuple[str, float, float, Optional[int]]]:
        """The ``(phase, start, end, iteration)`` rows (a new list per read)."""
        names = self._names
        return [
            (names[int(code)], start, end, None if iteration < 0 else int(iteration))
            for code, start, end, iteration in _ROW.iter_unpack(self._rows)
        ]

    @property
    def intervals(self) -> list[Interval]:
        """The rows as :class:`Interval` records (a new list per read)."""
        return [Interval(*row) for row in self.records]

    def record(self, phase: str, start: float, end: float, iteration: Optional[int] = None) -> None:
        """Append one interval (zero-length intervals are dropped)."""
        if end <= start:
            if end < start:
                raise ValueError(f"negative-duration interval: {phase} [{start}, {end}]")
            return
        try:
            code = self._codes[phase]
        except KeyError:  # copy on write: the tables may be shared
            code = float(len(self._names))
            self._names += (phase,)
            self._codes = {**self._codes, phase: code}
        # Phase intervals ARE the experiment's result payload: a run
        # records O(iterations) of them and ends; no cap wanted.
        self._rows.frombytes(_pack_row(
            code, start, end, _UNTAGGED if iteration is None else iteration))

    def _columns(self) -> np.ndarray:
        """The rows as an ``(n, 4)`` float64 view of the store (no copy;
        the store cannot grow while a view is alive)."""
        return np.frombuffer(self._rows, dtype=np.float64).reshape(-1, 4)

    def _where(self, keep: np.ndarray) -> "PhaseTrace":
        """A sub-trace of the rows where ``keep`` is true, in order."""
        sub = PhaseTrace(self.rank)
        sub._names, sub._codes = self._names, self._codes
        sub._rows.frombytes(self._columns()[keep].tobytes())
        return sub

    def total(self, phase: str) -> float:
        """Total time spent in ``phase``."""
        rows = self._columns()
        rows = rows[rows[:, 0] == self._codes.get(phase, -1)]
        # Python's own sum() over the row durations, as before (it
        # compensates from 3.12 on, so a numpy sum would move bits).
        return sum((rows[:, 2] - rows[:, 1]).tolist())

    def span(self) -> float:
        """Wall span from first interval start to last interval end."""
        rows = self._columns()
        if not len(rows):
            return 0.0
        return float(rows[:, 2].max() - rows[:, 1].min())

    def breakdown(self) -> "PhaseBreakdown":
        """Aggregate into a :class:`PhaseBreakdown`: the canonical phases,
        then any other phase in first-seen order, each summed in record
        order."""
        rows = self._columns()
        codes = rows[:, 0]
        durations = rows[:, 2] - rows[:, 1]
        totals = dict.fromkeys(PHASES, 0.0)
        present, first = np.unique(codes, return_index=True)
        for code in present[np.argsort(first)]:
            # A sequential scan: np.add.reduce sums pairwise.
            total = np.add.accumulate(durations[codes == code])[-1]
            totals[self._names[int(code)]] = float(total)
        return PhaseBreakdown(totals=totals, span=self.span())

    def iterations(self) -> list[int]:
        """Sorted distinct iteration tags present in the trace."""
        tags = self._columns()[:, 3]
        return [int(tag) for tag in np.unique(tags[tags != _UNTAGGED])]

    def since(self, iteration: int) -> "PhaseTrace":
        """A sub-trace of the intervals tagged ``iteration`` or later,
        plus the untagged ones (a warm-up cut)."""
        tags = self._columns()[:, 3]
        return self._where((tags == _UNTAGGED) | (tags >= iteration))

    def __len__(self) -> int:
        return len(self._rows) // 4

    def __repr__(self) -> str:
        return f"<PhaseTrace rank={self.rank} intervals={len(self)}>"


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
