"""Row-strip Jacobi iteration for the 2-D heat equation.

The 2-D analogue of :class:`~repro.apps.heat.HeatEquation1D`: the
grid's rows are divided into contiguous strips, one per processor;
each update reads the boundary *rows* of the two adjacent strips.
Ghost regions are whole rows, so speculation extrapolates vectors
rather than scalars — a more realistic PDE workload with a much larger
compute-to-message ratio.

Update (5-point stencil, Dirichlet boundary ``boundary`` on all
sides)::

    u[i,j] += r * (u[i-1,j] + u[i+1,j] + u[i,j-1] + u[i,j+1] - 4 u[i,j])

Stable for r <= 1/4.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.core.program import SyncIterativeProgram
from repro.core.speculators import LinearExtrapolation
from repro.partition import Partition, proportional_partition

#: Flops per grid cell per Jacobi update in the cost model.
CELL_FLOPS = 10.0


class HeatEquation2D(SyncIterativeProgram):
    """2-D heat-equation Jacobi solver as a SyncIterativeProgram.

    Parameters
    ----------
    initial:
        (rows, cols) initial temperature field.
    capacities:
        Per-processor capacities; grid *rows* allocated proportionally.
    iterations:
        Jacobi sweeps.
    r:
        Diffusion number (in (0, 0.25] for stability).
    boundary:
        Fixed Dirichlet temperature on all four sides.
    threshold:
        Acceptance threshold on the max absolute error over the ghost
        row actually consumed.
    """

    def __init__(
        self,
        initial: np.ndarray,
        capacities: Sequence[float],
        iterations: int,
        r: float = 0.2,
        boundary: float = 0.0,
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
        if field.ndim != 2:
            raise ValueError("initial field must be 2-D")
        if field.shape[0] < len(capacities):
            raise ValueError("need at least one grid row per processor")
        if not 0 < r <= 0.25:
            raise ValueError("r must be in (0, 0.25] for stability")
        self.field0 = field
        self.rows, self.cols = field.shape
        self.r = r
        self.boundary = float(boundary)
        self.partition = (
            partition
            if partition is not None
            else proportional_partition(self.rows, capacities)
        )
        if self.partition.n != self.rows or self.partition.nprocs != self.nprocs:
            raise ValueError("partition inconsistent with grid/capacities")
        for idx in self.partition:
            if idx.size and not np.array_equal(idx, np.arange(idx[0], idx[-1] + 1)):
                raise ValueError("HeatEquation2D requires contiguous row strips")

    # ----------------------------------------------------------- topology
    def needed(self, rank: int) -> frozenset[int]:
        """Only the row strips above and below."""
        deps = set()
        if rank > 0 and len(self.partition.indices(rank - 1)):
            deps.add(rank - 1)
        if rank < self.nprocs - 1 and len(self.partition.indices(rank + 1)):
            deps.add(rank + 1)
        return frozenset(deps)

    # ----------------------------------------------------------- numerics
    def initial_block(self, rank: int) -> np.ndarray:
        return self.field0[self.partition.indices(rank), :].copy()

    def _ghost_rows(self, rank: int, inputs: Mapping[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """(top, bottom) ghost rows for the rank's strip."""
        boundary_row = np.full(self.cols, self.boundary)
        if rank > 0:
            above = inputs[rank - 1]
            top = above[-1, :] if above.size else boundary_row
        else:
            top = boundary_row
        if rank < self.nprocs - 1:
            below = inputs[rank + 1]
            bottom = below[0, :] if below.size else boundary_row
        else:
            bottom = boundary_row
        return top, bottom

    def compute(self, rank: int, inputs: Mapping[int, np.ndarray], t: int) -> np.ndarray:
        u = inputs[rank]
        if u.size == 0:
            return u.copy()
        top, bottom = self._ghost_rows(rank, inputs)
        padded = np.empty((u.shape[0] + 2, u.shape[1] + 2))
        padded[1:-1, 1:-1] = u
        padded[0, 1:-1] = top
        padded[-1, 1:-1] = bottom
        padded[:, 0] = self.boundary
        padded[:, -1] = self.boundary
        lap = (
            padded[:-2, 1:-1]
            + padded[2:, 1:-1]
            + padded[1:-1, :-2]
            + padded[1:-1, 2:]
            - 4.0 * padded[1:-1, 1:-1]
        )
        return u + self.r * lap

    def _ghost_row_index(self, rank: int, k: int) -> int:
        if k == rank - 1:
            return -1
        if k == rank + 1:
            return 0
        raise ValueError(f"rank {rank} does not depend on {k}")

    def speculate(self, rank, k, times, values, target):
        """Extrapolate only the consumed ghost row; hold the rest."""
        base = np.array(values[-1], copy=True)
        if base.size == 0:
            return base
        idx = self._ghost_row_index(rank, k)
        row_history = [np.asarray(v)[idx, :] for v in values]
        base[idx, :] = self.speculator.extrapolate(times, row_history, target)
        return base

    def check(self, rank, k, speculated, actual, own):
        """Max absolute error over the consumed ghost row."""
        if np.asarray(actual).size == 0:
            return 0.0
        idx = self._ghost_row_index(rank, k)
        return float(np.max(np.abs(speculated[idx, :] - actual[idx, :])))

    def correct(self, rank, next_block, inputs, rejected, t):
        """Exact incremental fix of the strip row adjacent to each ``k``."""
        if next_block.size == 0:
            return next_block
        fixed = next_block.copy()
        for k, speculated, actual in rejected:
            idx = self._ghost_row_index(rank, k)
            wrong_row = speculated[idx, :]
            right_row = actual[idx, :]
            local_row = 0 if k == rank - 1 else -1
            fixed[local_row, :] += self.r * (right_row - wrong_row)
        return fixed

    def correct_ops(self, rank, inputs, k, speculated, actual, t):
        return 3.0 * self.cols if inputs[rank].size else 0.0

    # --------------------------------------------------------- cost model
    def compute_ops(self, rank: int) -> float:
        return CELL_FLOPS * len(self.partition.indices(rank)) * self.cols

    def speculate_ops(self, rank: int, k: int) -> float:
        return 4.0 * self.cols

    def check_ops(self, rank: int, k: int) -> float:
        return 2.0 * self.cols

    def block_nbytes(self, rank: int) -> int:
        return 8 * len(self.partition.indices(rank)) * self.cols + 64

    # ---------------------------------------------------------- reporting
    def gather(self, blocks: Mapping[int, np.ndarray]) -> np.ndarray:
        """Reassemble the full grid."""
        out = np.empty_like(self.field0)
        for rank, idx in enumerate(self.partition):
            out[idx, :] = blocks[rank]
        return out

    def reference(self) -> np.ndarray:
        """Serial ground truth after ``iterations`` sweeps."""
        u = self.field0.copy()
        for _ in range(self.iterations):
            padded = np.full((self.rows + 2, self.cols + 2), self.boundary)
            padded[1:-1, 1:-1] = u
            lap = (
                padded[:-2, 1:-1]
                + padded[2:, 1:-1]
                + padded[1:-1, :-2]
                + padded[1:-1, 2:]
                - 4.0 * padded[1:-1, 1:-1]
            )
            u = u + self.r * lap
        return u
