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
kernels (begin / absorb / finish); the N-body app does.  The baseline
runs on any backend as ``run(RunConfig(program, receive_driven=True))``
(the protocol is :class:`repro.engine.core.ReceiveDrivenEngine`).
Programs without incremental structure use the blocking algorithm of
Fig. 1 instead, ``RunConfig(program, fw=0)``.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Any

from repro.core.program import Block, SyncIterativeProgram


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
