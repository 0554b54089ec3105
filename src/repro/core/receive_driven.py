"""The receive-driven baseline of Fig. 7 (incremental compute, no speculation).

The paper's actual no-speculation N-body (Fig. 7) does not wait for
*all* messages before computing: it processes each arriving message
immediately ("receive a message; compute force due to X_k"), summing
partial results, and finalises the update once everything has arrived.
That overlaps communication with the part of the computation whose
inputs are already present — a weaker, speculation-free form of
latency hiding, and the natural baseline to separate *overlap from
reordering* from *overlap from speculation*.

Programs opt in by implementing :class:`IncrementalProgram`'s three
kernels (begin / absorb / finish); the N-body app does.  Programs
without incremental structure should keep using the blocking driver
(``run_program(..., fw=0)``), which implements Fig. 1.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Any, Generator

from repro.analysis.sanitizer import sanitizer_from_env
from repro.core.driver import check_cluster, des_report
from repro.core.program import Block, SyncIterativeProgram
from repro.core.results import RunReport, SpecStats
from repro.engine.core import ReceiveDrivenEngine, topology
from repro.engine.des_transport import DESTransport
from repro.engine.observer import RankObserver
from repro.vm import Cluster, VirtualProcessor


class IncrementalProgram(SyncIterativeProgram):
    """A program whose compute decomposes over source blocks.

    The decomposition must satisfy::

        compute(rank, inputs, t) ==
            finish(rank,
                   absorb(rank, ... absorb(rank, begin(rank, own, t),
                                           k1, inputs[k1], t) ..., t),
                   own, t)

    for any absorption order — partial results are order-independent
    (e.g. force accumulation).
    """

    @abstractmethod
    def begin(self, rank: int, own: Block, t: int) -> Any:
        """Start an accumulator from the rank's own block (may include
        the own-block contribution, e.g. intra-block forces)."""

    @abstractmethod
    def absorb(self, rank: int, acc: Any, k: int, block: Block, t: int) -> Any:
        """Fold one remote block's contribution into the accumulator."""

    @abstractmethod
    def finish(self, rank: int, acc: Any, own: Block, t: int) -> Block:
        """Turn the completed accumulator into the next own block."""

    def begin_ops(self, rank: int) -> float:
        """Operations for :meth:`begin` (own-block part of the work)."""
        n_own = self._block_size(rank)
        total = self.compute_ops(rank)
        return total * n_own / max(self._total_size(), 1)

    def absorb_ops(self, rank: int, k: int) -> float:
        """Operations for absorbing block ``k``."""
        total = self.compute_ops(rank)
        return total * self._block_size(k) / max(self._total_size(), 1)

    def finish_ops(self, rank: int) -> float:
        """Operations for :meth:`finish` (the final state update)."""
        return 0.0

    def _total_size(self) -> int:
        return sum(self._block_size(k) for k in range(self.nprocs))


class ReceiveDrivenDriver:
    """Runs an :class:`IncrementalProgram` with Fig. 7 semantics.

    Per iteration: broadcast the own block, start the accumulator from
    local state, then absorb each message *as it arrives* (any order);
    when all expected blocks are in, finish the update and move on.

    The protocol itself is :class:`repro.engine.ReceiveDrivenEngine`;
    this driver builds one per rank and interprets its effects on the
    simulator through :class:`~repro.engine.des_transport.DESTransport`.
    """

    def __init__(self, program: IncrementalProgram, cluster: Cluster) -> None:
        if not isinstance(program, IncrementalProgram):
            raise TypeError("ReceiveDrivenDriver needs an IncrementalProgram")
        check_cluster(program, cluster)
        self.program = program
        self.cluster = cluster
        self._stats = [SpecStats(rank=r) for r in range(cluster.size)]
        self._needed, self._audience = topology(program)
        self._observers: dict[int, RankObserver] = {}

    def run(self) -> RunReport:
        """Execute to completion; returns the measurements."""
        if self.cluster.env.sanitizer is None:
            # DES-level invariants only (no speculation happens here).
            self.cluster.env.sanitizer = sanitizer_from_env()
        finals = self.cluster.run(self._rank_program)
        return des_report(
            self.cluster, finals, self._stats, self._observers, None,
            fw=0, iterations=self.program.iterations,
        )

    def _rank_program(self, proc: VirtualProcessor) -> Generator:
        """One rank: a :class:`ReceiveDrivenEngine` over the simulator."""
        j = proc.rank
        engine = ReceiveDrivenEngine(
            self.program, j, self._needed[j], self._audience[j],
            stats=self._stats[j],
        )
        transport = DESTransport(proc, event_log=self.cluster.event_log)
        self._observers[j] = transport.observer
        return transport.drive(engine)
