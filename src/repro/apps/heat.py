"""Strip-decomposed Jacobi iteration for the 1-D heat equation.

A classic synchronous iterative algorithm with *neighbor* coupling:
each processor owns a contiguous strip of grid cells and only reads
the strips adjacent to it, exercising the driver's dependency-topology
support (``needed``).

Update rule (explicit Euler on u_t = α u_xx, Dirichlet boundaries)::

    u_i(t+1) = u_i(t) + r (u_{i-1}(t) − 2 u_i(t) + u_{i+1}(t)),
    r = α Δt / Δx² (stable for r <= 1/2)

Speculation of a neighbor strip extrapolates its cells from history;
only the strip's edge cell actually influences the local update, and
the incremental correction uses exactly that structure.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.core.program import SyncIterativeProgram
from repro.core.speculators import LinearExtrapolation
from repro.partition import Partition, proportional_partition

#: Flops per cell per Jacobi update in the cost model.
CELL_FLOPS = 6.0


class HeatEquation1D(SyncIterativeProgram):
    """1-D heat-equation Jacobi solver as a SyncIterativeProgram.

    Parameters
    ----------
    initial:
        (n,) initial temperature field.
    capacities:
        Per-processor capacities; cells allocated proportionally.
    iterations:
        Jacobi sweeps to run.
    r:
        Diffusion number α Δt / Δx² (must be in (0, 0.5] for
        stability).
    boundary:
        (left, right) fixed Dirichlet boundary temperatures.
    threshold:
        Acceptance threshold on the absolute speculated-cell error.
    """

    def __init__(
        self,
        initial: np.ndarray,
        capacities: Sequence[float],
        iterations: int,
        r: float = 0.25,
        boundary: tuple[float, float] = (0.0, 0.0),
        threshold: float = 1e-3,
        speculator=None,
        partition: Optional[Partition] = None,
    ) -> None:
        super().__init__(
            nprocs=len(capacities),
            iterations=iterations,
            threshold=threshold,
            speculator=speculator if speculator is not None else LinearExtrapolation(),
        )
        field = np.asarray(initial, dtype=float)
        if field.ndim != 1 or field.size < len(capacities):
            raise ValueError("initial field must be 1-D with >= nprocs cells")
        if not 0 < r <= 0.5:
            raise ValueError("r must be in (0, 0.5] for stability")
        self.field0 = field
        self.r = r
        self.boundary = (float(boundary[0]), float(boundary[1]))
        self.partition = (
            partition
            if partition is not None
            else proportional_partition(field.size, capacities)
        )
        if self.partition.n != field.size or self.partition.nprocs != self.nprocs:
            raise ValueError("partition inconsistent with field/capacities")
        # Contiguity check: strips must be consecutive index ranges.
        for idx in self.partition:
            if idx.size and not np.array_equal(idx, np.arange(idx[0], idx[-1] + 1)):
                raise ValueError("HeatEquation1D requires contiguous strips")

    # ----------------------------------------------------------- topology
    def needed(self, rank: int) -> frozenset[int]:
        """Only the strips physically adjacent to ``rank``'s strip."""
        deps = set()
        if rank > 0 and len(self.partition.indices(rank - 1)):
            deps.add(rank - 1)
        if rank < self.nprocs - 1 and len(self.partition.indices(rank + 1)):
            deps.add(rank + 1)
        # Skip empty own strips' bookkeeping gracefully.
        return frozenset(d for d in deps if d != rank)

    # ----------------------------------------------------------- numerics
    def initial_block(self, rank: int) -> np.ndarray:
        return self.field0[self.partition.indices(rank)].copy()

    def _edges(self, rank: int, inputs: Mapping[int, np.ndarray]) -> tuple[float, float]:
        """Ghost values to the left and right of the rank's strip."""
        if rank > 0:
            left_block = inputs[rank - 1]
            left = float(left_block[-1]) if left_block.size else self.boundary[0]
        else:
            left = self.boundary[0]
        if rank < self.nprocs - 1:
            right_block = inputs[rank + 1]
            right = float(right_block[0]) if right_block.size else self.boundary[1]
        else:
            right = self.boundary[1]
        return left, right

    def compute(self, rank: int, inputs: Mapping[int, np.ndarray], t: int) -> np.ndarray:
        u = inputs[rank]
        if u.size == 0:
            return u.copy()
        left, right = self._edges(rank, inputs)
        padded = np.concatenate([[left], u, [right]])
        lap = padded[:-2] - 2.0 * padded[1:-1] + padded[2:]
        return u + self.r * lap

    def _ghost_index(self, rank: int, k: int) -> int:
        """Index within k's strip that ``rank`` actually reads."""
        if k == rank - 1:
            return -1  # left neighbour's last cell
        if k == rank + 1:
            return 0  # right neighbour's first cell
        raise ValueError(f"rank {rank} does not depend on {k}")

    def speculate(self, rank, k, times, values, target):
        """Extrapolate only the ghost cell; hold the rest of the strip.

        The local update reads exactly one cell of each neighbour
        strip, so speculating the full strip would cost nearly as much
        as computing it — this is the strip-decomposition analogue of
        the paper's "speculation must be cheap relative to
        computation" requirement.
        """
        base = np.array(values[-1], copy=True)
        if base.size == 0:
            return base
        idx = self._ghost_index(rank, k)
        edge_history = [np.atleast_1d(np.asarray(v)[idx]) for v in values]
        base[idx] = self.speculator.extrapolate(times, edge_history, target)[0]
        return base

    def check(self, rank, k, speculated, actual, own):
        """Absolute error on the single ghost cell that was consumed."""
        if np.asarray(actual).size == 0:
            return 0.0
        idx = self._ghost_index(rank, k)
        return abs(float(speculated[idx]) - float(actual[idx]))

    def correct(self, rank, next_block, inputs, rejected, t):
        """Exact incremental fix: only the edge cell reads the neighbor.

        A wrong speculated neighbor strip affects the local update only
        through one ghost value, so each repair touches one cell.
        """
        if next_block.size == 0:
            return next_block
        fixed = next_block.copy()
        for k, speculated, actual in rejected:
            if k == rank - 1:
                wrong = float(speculated[-1]) if speculated.size else self.boundary[0]
                right_val = float(actual[-1]) if actual.size else self.boundary[0]
                fixed[0] += self.r * (right_val - wrong)
            elif k == rank + 1:
                wrong = float(speculated[0]) if speculated.size else self.boundary[1]
                right_val = float(actual[0]) if actual.size else self.boundary[1]
                fixed[-1] += self.r * (right_val - wrong)
            else:  # pragma: no cover - needed() prevents other ranks
                raise ValueError(f"rank {rank} does not depend on {k}")
        return fixed

    def correct_ops(self, rank, inputs, k, speculated, actual, t):
        return 4.0 if inputs[rank].size else 0.0

    # --------------------------------------------------------- cost model
    def compute_ops(self, rank: int) -> float:
        return CELL_FLOPS * len(self.partition.indices(rank))

    def speculate_ops(self, rank: int, k: int) -> float:
        # Only the ghost cell is extrapolated (see :meth:`speculate`).
        return 8.0

    def check_ops(self, rank: int, k: int) -> float:
        return 4.0

    def block_nbytes(self, rank: int) -> int:
        return 8 * len(self.partition.indices(rank)) + 32

    # ---------------------------------------------------------- reporting
    def gather(self, blocks: Mapping[int, np.ndarray]) -> np.ndarray:
        """Reassemble the full temperature field."""
        out = np.empty_like(self.field0)
        for rank, idx in enumerate(self.partition):
            out[idx] = blocks[rank]
        return out

    def reference(self) -> np.ndarray:
        """Serial ground truth after ``iterations`` sweeps."""
        u = self.field0.copy()
        for _ in range(self.iterations):
            padded = np.concatenate([[self.boundary[0]], u, [self.boundary[1]]])
            u = u + self.r * (padded[:-2] - 2.0 * padded[1:-1] + padded[2:])
        return u
