"""Dense Jacobi iteration for Ax = b as a synchronous iterative program.

The textbook all-to-all synchronous iterative algorithm (one of the
paper's motivating examples: "iterative techniques to solve linear and
non-linear equations").  Each processor owns a block of the solution
vector; every update reads the whole vector::

    x(t+1) = D⁻¹ (b − R x(t)),   A = D + R

For diagonally dominant A the iteration contracts, so speculation
errors shrink over time and a converging run needs ever fewer
corrections — a dynamic the N-body case study does not show.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.program import SyncIterativeProgram
from repro.core.speculators import LinearExtrapolation
from repro.partition import proportional_partition


def diagonally_dominant_system(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Random (A, b) with rows diagonally dominant by 2×."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    np.fill_diagonal(a, 0.0)
    row_sums = np.abs(a).sum(axis=1)
    np.fill_diagonal(a, 2.0 * np.maximum(row_sums, 1.0))
    b = rng.normal(size=n)
    return a, b


class JacobiSolver(SyncIterativeProgram):
    """Jacobi iteration as a SyncIterativeProgram.

    Parameters
    ----------
    a / b:
        The system matrix (must have non-zero diagonal) and right-hand
        side.
    capacities:
        Per-processor capacities; rows allocated proportionally.
    iterations:
        Jacobi sweeps.
    threshold:
        Acceptance threshold on the max absolute error of a speculated
        block.

    The initial guess is zero.
    """

    def __init__(
        self,
        a: np.ndarray,
        b: np.ndarray,
        capacities: Sequence[float],
        iterations: int,
        threshold: float = 1e-6,
        speculator=None,
    ) -> None:
        super().__init__(
            nprocs=len(capacities),
            iterations=iterations,
            threshold=threshold,
            speculator=speculator if speculator is not None else LinearExtrapolation(),
        )
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        n = self.b.shape[0]
        if self.a.shape != (n, n):
            raise ValueError("A must be square and match b")
        diag = np.diag(self.a)
        if np.any(diag == 0):
            raise ValueError("A must have a non-zero diagonal")
        self.x0 = np.zeros(n)
        self.partition = proportional_partition(n, capacities)
        self._diag = diag
        #: Per-rank row slices of A and cached diagonal blocks.
        self._rows = [self.a[idx, :] for idx in self.partition]

    # ----------------------------------------------------------- numerics
    def initial_block(self, rank: int) -> np.ndarray:
        return self.x0[self.partition.indices(rank)].copy()

    def _assemble(self, inputs: Mapping[int, np.ndarray]) -> np.ndarray:
        x = np.empty(self.partition.n)
        for rank, idx in enumerate(self.partition):
            x[idx] = inputs[rank]
        return x

    def compute(self, rank: int, inputs: Mapping[int, np.ndarray], t: int) -> np.ndarray:
        x = self._assemble(inputs)
        idx = self.partition.indices(rank)
        rows = self._rows[rank]
        # x_i' = (b_i - sum_{j != i} A_ij x_j) / A_ii
        full = rows @ x
        off_diag = full - self._diag[idx] * x[idx]
        return (self.b[idx] - off_diag) / self._diag[idx]

    # --------------------------------------------------------- cost model
    def compute_ops(self, rank: int) -> float:
        # One dense row-sweep: 2 flops per matrix entry in the block rows.
        return 2.0 * len(self.partition.indices(rank)) * self.partition.n

    def speculate_ops(self, rank: int, k: int) -> float:
        return 4.0 * len(self.partition.indices(k))

    def check_ops(self, rank: int, k: int) -> float:
        return 2.0 * len(self.partition.indices(k))

    def block_nbytes(self, rank: int) -> int:
        return 8 * len(self.partition.indices(rank)) + 32

    # ---------------------------------------------------------- reporting
    def gather(self, blocks: Mapping[int, np.ndarray]) -> np.ndarray:
        """Reassemble the solution vector."""
        return self._assemble(blocks)

    def reference(self) -> np.ndarray:
        """Serial Jacobi ground truth after ``iterations`` sweeps."""
        x = self.x0.copy()
        r = self.a - np.diag(self._diag)
        for _ in range(self.iterations):
            x = (self.b - r @ x) / self._diag
        return x

    def residual(self, x: np.ndarray) -> float:
        """‖Ax − b‖₂ (convergence diagnostic)."""
        return float(np.linalg.norm(self.a @ x - self.b))
