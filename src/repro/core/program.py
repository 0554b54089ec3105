"""The application interface for synchronous iterative algorithms.

A :class:`SyncIterativeProgram` describes one application in the
paper's model (Section 2)::

    X(t+1) = F(X(t), X(t-1), ...)

partitioned into per-processor *blocks*.  The engine
(:class:`repro.engine.core.SpecEngine`) calls back into the program for:

* the real numerics (``compute``, ``speculate``, ``check``,
  ``correct``) — executed for every simulated processor so that
  speculation errors and recomputation rates *emerge from the
  application*, exactly as on the paper's testbed; and
* the cost model (``*_ops`` methods) — operation counts that the
  virtual processors convert to virtual time at their capacity M_i.

Blocks are opaque to the driver (usually numpy arrays, or small
structures of arrays like the N-body ``(positions, velocities)``
pair); the only requirements are that ``compute`` is a *pure function*
of its inputs (enabling recomputation) and blocks are never mutated in
place after being returned.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.core.checkers import ErrorMetric, MaxRelativeError
from repro.core.speculators import Speculator, ZeroOrderHold

#: Opaque per-processor state; typically numpy arrays.
Block = Any


class SyncIterativeProgram(ABC):
    """One synchronous iterative application + its cost model.

    Subclasses must implement the abstract methods; the speculation,
    checking and correction hooks have sensible defaults built from
    :attr:`speculator` / :attr:`error_metric` and full recomputation.

    Attributes
    ----------
    nprocs:
        Number of processor blocks the problem is partitioned into.
    iterations:
        Number of synchronous iterations to run.
    threshold:
        Acceptance threshold θ: a speculation with
        ``check(...) > threshold`` triggers correction.
    speculator:
        Default speculation function used by :meth:`speculate`.
    error_metric:
        Default metric used by :meth:`check`.
    """

    def __init__(
        self,
        nprocs: int,
        iterations: int,
        threshold: float = 0.01,
        speculator: Optional[Speculator] = None,
        error_metric: Optional[ErrorMetric] = None,
    ) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        self.nprocs = nprocs
        self.iterations = iterations
        self.threshold = threshold
        self.speculator = speculator if speculator is not None else ZeroOrderHold()
        self.error_metric = error_metric if error_metric is not None else MaxRelativeError()

    # ----------------------------------------------------------- numerics
    @abstractmethod
    def initial_block(self, rank: int) -> Block:
        """Block state at t = 0 (known to every processor — the
        pseudocode's "Read x_i(0) ∀i")."""

    @abstractmethod
    def compute(self, rank: int, inputs: Mapping[int, Block], t: int) -> Block:
        """Evaluate ``rank``'s block at t+1 from all blocks at t.

        ``inputs`` maps every rank (including ``rank`` itself) to its
        block at iteration ``t``; some remote entries may be
        *speculated* values.  Must be pure: no mutation of inputs, and
        identical inputs give identical outputs (the driver re-invokes
        it for corrections).
        """

    def speculate(
        self,
        rank: int,
        k: int,
        times: Sequence[int],
        values: Sequence[Block],
        target: int,
    ) -> Block:
        """Speculate processor ``k``'s block at iteration ``target``.

        Default: delegate to :attr:`speculator` (treating the block as
        an array).  Applications with structured blocks override this
        (e.g. N-body speculates positions from transmitted velocities,
        Eq. 10).
        """
        return self.speculator.extrapolate(times, values, target)

    def check(self, rank: int, k: int, speculated: Block, actual: Block, own: Block) -> float:
        """Error of a past speculation, as seen by ``rank``.

        ``own`` is the observing rank's block at the same iteration,
        allowing relational metrics like the paper's Eq. 11 (error
        relative to inter-particle distance).  Default: the generic
        :attr:`error_metric` on the raw arrays.
        """
        return self.error_metric.error(np.asarray(speculated), np.asarray(actual))

    def correct(
        self,
        rank: int,
        next_block: Block,
        inputs: Mapping[int, Block],
        rejected: Sequence[tuple[int, Block, Block]],
        t: int,
    ) -> Block:
        """Repair ``rank``'s block at t+1 after rejected speculations.

        The engine calls this once per repaired iteration, with every
        speculation of iteration ``t`` rejected since the last repair;
        each was priced by :meth:`correct_ops` when it was rejected.

        Parameters
        ----------
        next_block:
            The (tainted) X_rank(t+1) computed with the speculated inputs.
        inputs:
            The inputs of that computation, each rejected rank's entry
            already replaced by its actual block.
        rejected:
            ``(k, speculated, actual)`` per rejection, in rejection
            order: the rank whose speculation failed, and the rejected
            and the true block of ``k`` at iteration ``t``.
        t:
            The iteration whose inputs were wrong.

        Returns
        -------
        The corrected block.  The default performs one full
        recomputation on the repaired inputs — the paper's "or in some
        cases, recomputes its variables".  Applications can override
        with an incremental correction (the N-body app subtracts the
        speculated-pair forces and adds the actual-pair forces); the
        result must equal applying the rejections one at a time, in
        order.
        """
        return self.compute(rank, inputs, t)

    def correct_ops(
        self,
        rank: int,
        inputs: Mapping[int, Block],
        k: int,
        speculated: Block,
        actual: Block,
        t: int,
    ) -> float:
        """Operations to repair X_rank(t+1) for one rejected speculation
        (``k``'s ``speculated`` block, whose ``actual`` arrived), charged
        as it is rejected.  ``inputs`` are as for :meth:`correct`.
        Default: one full recomputation."""
        return self.compute_ops(rank)

    # ----------------------------------------------------------- topology
    def needed(self, rank: int) -> frozenset[int]:
        """Ranks whose blocks ``rank``'s compute actually reads.

        Default: all other ranks (the paper's dense model, where every
        variable may depend on every other).  Neighbor-coupled
        applications (e.g. strip-decomposed PDE solvers) override this
        so the driver neither waits on nor speculates blocks that are
        never read.
        """
        return frozenset(k for k in range(self.nprocs) if k != rank)

    # --------------------------------------------------------- cost model
    @abstractmethod
    def compute_ops(self, rank: int) -> float:
        """Operations for one ``compute`` call on ``rank`` (N_i · f_comp)."""

    @abstractmethod
    def block_nbytes(self, rank: int) -> int:
        """Wire size of ``rank``'s block message."""

    def speculate_ops(self, rank: int, k: int) -> float:
        """Operations to speculate ``k``'s block (N_k · f_spec).

        Default: 12 operations per scalar in the block (the paper's
        N-body speculation cost: 12 flops per particle position).
        """
        return 12.0 * self._block_size(k)

    def check_ops(self, rank: int, k: int) -> float:
        """Operations to check ``k``'s block (N_k · f_check).

        Default: 24 operations per scalar (the paper's N-body checking
        cost: 24 flops per particle).
        """
        return 24.0 * self._block_size(k)

    def send_ops(self, rank: int) -> float:
        """Sender CPU operations per outgoing message (PVM pack cost).

        Real message-passing systems charge the sender for packing and
        kernel crossings; PVM's per-message software cost was
        substantial on the paper's testbed.  Default 0 (free sends, the
        idealised model); platforms wanting fidelity override this or
        wrap the program.
        """
        return 0.0

    def _block_size(self, k: int) -> int:
        """Number of scalars in ``k``'s initial block (cost-model helper)."""
        block = self.initial_block(k)
        if isinstance(block, np.ndarray):
            return int(block.size)
        if isinstance(block, (tuple, list)):
            return int(sum(np.asarray(b).size for b in block))
        return 1

    # ---------------------------------------------------------- reporting
    def gather(self, blocks: Mapping[int, Block]) -> Any:
        """Assemble per-rank final blocks into a global result.

        Default: return the mapping unchanged; applications usually
        concatenate arrays back into problem order.
        """
        return dict(blocks)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} p={self.nprocs} T={self.iterations} "
            f"theta={self.threshold}>"
        )
