"""The run report, speculation statistics, and speedup helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence

from repro.trace import EventLog, PhaseBreakdown, PhaseTrace, merge_breakdowns
from repro.trace.events import TraceHeader

if TYPE_CHECKING:
    from repro.api import RunConfig


@dataclass
class SpecStats:
    """Per-processor speculation counters for one run.

    Attributes
    ----------
    spec_made:
        Speculated blocks used as compute inputs (includes cascade
        re-speculations).
    spec_accepted / spec_rejected:
        Outcomes of the error checks (``accepted + rejected == checks``).
    checks:
        Speculated blocks verified against the received actual value.
    recomputes:
        Block-iterations recomputed or corrected after a rejection
        (cascade recomputations count once per redone iteration).
    iterations:
        Iterations executed by this rank.
    tainted_sends:
        Blocks broadcast while at least one earlier speculation was
        still unverified (only possible with a forward window > 1).
    messages_sent / messages_received:
        Message counters.
    retransmits:
        Retransmission requests issued by the engine's resilience layer
        (sequence gaps detected; zero on fault-free transports).
    dups_suppressed:
        Duplicate sequenced arrivals discarded before the protocol core
        saw them (zero on fault-free transports).
    """

    rank: int = 0
    spec_made: int = 0
    spec_accepted: int = 0
    spec_rejected: int = 0
    checks: int = 0
    recomputes: int = 0
    iterations: int = 0
    tainted_sends: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    retransmits: int = 0
    dups_suppressed: int = 0

    @property
    def rejection_rate(self) -> float:
        """Fraction of checked speculations rejected (0 if none checked)."""
        return self.spec_rejected / self.checks if self.checks else 0.0


@dataclass
class RunReport:
    """What one run produced — the one result type, on every backend.

    Every time is in the backend's own clock: virtual seconds on DES,
    scheduler rounds (``wall_seconds``) and counted ops (``traces``) on
    loopback, wall seconds since the start barrier on mp.

    Attributes
    ----------
    backend:
        ``"des"``, ``"loopback"`` or ``"mp"``.
    results:
        Mapping rank → final block (X_j at the last iteration).
    wall_seconds:
        Start to the last rank finishing (the DES makespan).
    traces:
        Per-rank :class:`~repro.trace.PhaseTrace`, rank order: one row
        per charge and per blocking receive, tagged with its iteration.
    stats:
        Per-rank :class:`SpecStats`.
    window_history:
        rank → ``(iteration, fw)`` trajectory, seeded with the initial
        window and extended by WindowChanged effects when a window
        policy is seated.
    fw:
        Forward window the run started with (0 = no speculation).
    iterations:
        Iterations executed.
    capacities:
        Processor capacities M_i of the cluster that ran (DES only;
        empty elsewhere).
    fault_summary:
        :func:`~repro.faults.merge_summaries` over the ranks' injector
        receipts; None without a fault plan.
    event_log:
        The protocol trace, when one was recorded.
    """

    backend: str
    results: dict[int, Any]
    wall_seconds: float
    traces: list[PhaseTrace]
    stats: list[SpecStats]
    window_history: dict[int, list[tuple[int, int]]]
    fw: int
    iterations: int
    capacities: list[float] = field(default_factory=list)
    fault_summary: Optional[dict[str, Any]] = None
    event_log: Optional[EventLog] = None

    def final_windows(self) -> list[int]:
        """The FW each rank ended the run with (see ``window_history``)."""
        return [self.window_history[r][-1][1] for r in sorted(self.window_history)]

    @property
    def nprocs(self) -> int:
        """Number of processors in the run."""
        return len(self.traces)

    @property
    def time_per_iteration(self) -> float:
        """Average time per iteration (the model's t_total)."""
        return self.wall_seconds / self.iterations

    @property
    def timings(self) -> dict[str, float]:
        """Per-phase totals, max over ranks: the six canonical phases."""
        return self.breakdown().totals

    def breakdown(self, how: str = "max") -> PhaseBreakdown:
        """Cluster-level phase breakdown (see :func:`merge_breakdowns`)."""
        return merge_breakdowns([t.breakdown() for t in self.traces], how=how)

    def per_iteration_breakdown(self, how: str = "max") -> PhaseBreakdown:
        """Phase breakdown normalised per iteration (Table-2 shape)."""
        return self.breakdown(how=how).scaled(1.0 / self.iterations)

    def steady_breakdown(self, how: str = "max", skip: int = 1) -> PhaseBreakdown:
        """Per-iteration breakdown excluding the first ``skip`` warm-up
        iterations.

        Iteration 0 never communicates (X(0) is known everywhere from
        the initial read), so whole-run averages understate the
        steady-state communication time by a factor (T−1)/T; this view
        matches the paper's per-iteration Table 2 numbers.
        """
        if not 0 <= skip < self.iterations:
            raise ValueError("skip must be in [0, iterations)")
        breakdowns = [trace.since(skip).breakdown() for trace in self.traces]
        return merge_breakdowns(breakdowns, how=how).scaled(
            1.0 / (self.iterations - skip))

    @property
    def recompute_fraction(self) -> float:
        """Corrections per checked speculation (cascades included).

        ``Σ recomputes / Σ checks``: 0 when every speculation was
        accepted; can exceed the rejection rate when forward-window
        cascades redo several iterations per rejection.
        """
        checks = sum(s.checks for s in self.stats)
        if checks == 0:
            return 0.0
        return sum(s.recomputes for s in self.stats) / checks

    def measured_k(self, skip: int = 1) -> float:
        """The model's k, measured: correction time over compute time.

        Eq. 8's penalty term is ``k · N_i · f_comp / M_i`` — i.e. k is
        the recomputation cost as a fraction of a full compute phase —
        so the measured analogue is the steady-state ratio of the
        ``correct`` phase to the ``compute`` phase.
        """
        b = self.steady_breakdown(skip=skip) if self.iterations > skip else self.breakdown()
        comp = b["compute"]
        if comp == 0:
            return 0.0
        return b["correct"] / comp

    @property
    def rejection_rate(self) -> float:
        """Fleet-wide fraction of checked speculations rejected (0 if
        none checked)."""
        checks = sum(s.checks for s in self.stats)
        return sum(s.spec_rejected for s in self.stats) / checks if checks else 0.0

    def summary(self) -> dict:
        """Plain-data summary (JSON-serialisable) of the run.

        Contains the headline timings, the steady per-iteration phase
        breakdown, and aggregated speculation statistics — everything a
        results pipeline typically wants, none of the block payloads.
        """
        steady = (
            self.steady_breakdown() if self.iterations > 1 else self.per_iteration_breakdown()
        )
        return {
            "backend": self.backend,
            "nprocs": self.nprocs,
            "fw": self.fw,
            "iterations": self.iterations,
            "wall_seconds": self.wall_seconds,
            "time_per_iteration": self.time_per_iteration,
            "steady_phase_seconds": dict(steady.totals),
            "rejection_rate": self.rejection_rate,
            "recompute_fraction": self.recompute_fraction,
            "measured_k": self.measured_k() if self.iterations > 1 else 0.0,
            "tainted_sends": sum(s.tainted_sends for s in self.stats),
            "messages_sent": sum(s.messages_sent for s in self.stats),
            "final_windows": self.final_windows(),
            "capacities": list(self.capacities),
        }

    def __repr__(self) -> str:
        return (
            f"<RunReport {self.backend} p={self.nprocs} FW={self.fw} "
            f"wall={self.wall_seconds:.6g} k={self.recompute_fraction:.3%}>"
        )


def assemble_report(
    config: RunConfig, finals: Mapping[int, Any], traces: Iterable[PhaseTrace],
    stats: Iterable[SpecStats],
    window_history: Mapping[int, list[tuple[int, int]]],
    wall_seconds: float, receipts: Optional[Iterable[Any]], *,
    capacities: Iterable[float] = (), event_log: Optional[EventLog] = None,
) -> RunReport:
    """The one place a backend's measurements become a :class:`RunReport`:
    final blocks, per-rank traces / stats / window histories in rank
    order, the clock total, and the ranks' fault receipts
    (:class:`~repro.faults.FaultSummary`; None without a fault plan).
    The backend, window and iteration count come from the run's
    ``config``; the Fig. 7 baseline has no window and reports fw 0.
    A recorded ``event_log`` gets the run's
    :class:`~repro.trace.events.TraceHeader` here, for every backend."""
    # Deferred: repro.faults imports the engine, which imports this module.
    from repro.faults.plan import merge_summaries

    if event_log is not None:
        from repro.engine.core import default_hist_cap

        policy, program = config.window_policy, config.program
        event_log.header = TraceHeader(
            p=program.nprocs, iterations=program.iterations,
            max_fw=0 if config.receive_driven
            else policy.max_fw if policy is not None else config.fw,
            hist_cap=config.bw if config.bw is not None
            else default_hist_cap(program),
        )

    return RunReport(
        backend=config.backend, results=dict(finals),
        wall_seconds=float(wall_seconds),
        traces=list(traces), stats=list(stats),
        window_history=dict(window_history),
        fw=0 if config.receive_driven else config.fw,
        iterations=config.program.iterations,
        capacities=list(capacities), event_log=event_log,
        fault_summary=None if receipts is None else merge_summaries(list(receipts)),
    )


def speedup(serial_time: float, parallel_time: float) -> float:
    """The paper's speedup: execution time on P1 over time on {P1..Pp}."""
    if serial_time <= 0 or parallel_time <= 0:
        raise ValueError("times must be positive")
    return serial_time / parallel_time


def speedup_max(capacities: Sequence[float]) -> float:
    """Maximum attainable speedup: Σ M_i / M_1 (capacities fastest-first)."""
    caps = list(capacities)
    if not caps:
        raise ValueError("need at least one capacity")
    if any(c <= 0 for c in caps):
        raise ValueError("capacities must be positive")
    return sum(caps) / caps[0]
