"""Strip-decomposed leapfrog solver for the 1-D wave equation.

A hyperbolic counterpart to the heat apps: solutions are *traveling
waves*, so a ghost cell's value changes smoothly and nearly linearly in
time — the ideal regime for the paper's extrapolation-based
speculation (heat problems decay toward stationarity; wave problems
keep moving, so speculation keeps earning its keep).

Discretisation (fixed ends, courant number c = v·Δt/Δx ≤ 1)::

    u(t+1, i) = 2 u(t, i) − u(t−1, i) + c² (u(t, i−1) − 2 u(t, i) + u(t, i+1))

The block state carries the two time levels the stencil needs:
``block[0] = u(t)``, ``block[1] = u(t−1)``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.program import SyncIterativeProgram
from repro.core.speculators import LinearExtrapolation
from repro.partition import proportional_partition

#: Flops per cell per leapfrog update in the cost model.
CELL_FLOPS = 8.0


class WaveEquation1D(SyncIterativeProgram):
    """1-D wave equation as a SyncIterativeProgram.

    Parameters
    ----------
    initial:
        (n,) initial displacement u(0); the string starts at rest
        (u(-1) = u(0)).
    capacities:
        Per-processor capacities; cells allocated proportionally.
    iterations:
        Timesteps.
    courant:
        c = v·Δt/Δx; stable for 0 < c <= 1.
    threshold:
        Acceptance threshold on the absolute error of the consumed
        ghost displacement.
    """

    def __init__(
        self,
        initial: np.ndarray,
        capacities: Sequence[float],
        iterations: int,
        courant: float = 0.9,
        threshold: float = 1e-3,
        speculator=None,
    ) -> None:
        super().__init__(
            nprocs=len(capacities),
            iterations=iterations,
            threshold=threshold,
            speculator=speculator if speculator is not None else LinearExtrapolation(),
        )
        field = np.asarray(initial, dtype=float)
        if field.ndim != 1 or field.size < len(capacities):
            raise ValueError("initial displacement must be 1-D with >= nprocs cells")
        if not 0 < courant <= 1:
            raise ValueError("courant must be in (0, 1] for stability")
        self.u0 = field
        self.c2 = courant * courant
        self.partition = proportional_partition(field.size, capacities)

    # ----------------------------------------------------------- topology
    def needed(self, rank: int) -> frozenset[int]:
        """Adjacent strips only."""
        deps = set()
        if rank > 0 and len(self.partition.indices(rank - 1)):
            deps.add(rank - 1)
        if rank < self.nprocs - 1 and len(self.partition.indices(rank + 1)):
            deps.add(rank + 1)
        return frozenset(deps)

    # ----------------------------------------------------------- numerics
    def initial_block(self, rank: int) -> np.ndarray:
        u = self.u0[self.partition.indices(rank)]
        return np.vstack([u, u])  # starts at rest: u(-1) = u(0)

    def _ghosts(self, rank: int, inputs: Mapping[int, np.ndarray]) -> tuple[float, float]:
        left = right = 0.0  # fixed ends
        if rank > 0:
            block = inputs[rank - 1]
            if block.shape[1]:
                left = float(block[0, -1])
        if rank < self.nprocs - 1:
            block = inputs[rank + 1]
            if block.shape[1]:
                right = float(block[0, 0])
        return left, right

    def compute(self, rank: int, inputs: Mapping[int, np.ndarray], t: int) -> np.ndarray:
        block = inputs[rank]
        u_now, u_prev = block[0], block[1]
        if u_now.size == 0:
            return block.copy()
        left, right = self._ghosts(rank, inputs)
        padded = np.concatenate([[left], u_now, [right]])
        lap = padded[:-2] - 2.0 * padded[1:-1] + padded[2:]
        u_next = 2.0 * u_now - u_prev + self.c2 * lap
        return np.vstack([u_next, u_now])

    def _ghost_index(self, rank: int, k: int) -> int:
        if k == rank - 1:
            return -1
        if k == rank + 1:
            return 0
        raise ValueError(f"rank {rank} does not depend on {k}")

    def speculate(self, rank, k, times, values, target):
        """Extrapolate only the consumed ghost displacement."""
        base = np.array(values[-1], copy=True)
        if base.shape[1] == 0:
            return base
        idx = self._ghost_index(rank, k)
        history = [np.atleast_1d(np.asarray(v)[0, idx]) for v in values]
        base[0, idx] = self.speculator.extrapolate(times, history, target)[0]
        return base

    def check(self, rank, k, speculated, actual, own):
        """Absolute error on the consumed ghost displacement."""
        if np.asarray(actual).shape[1] == 0:
            return 0.0
        idx = self._ghost_index(rank, k)
        return abs(float(speculated[0, idx]) - float(actual[0, idx]))

    def correct(self, rank, next_block, inputs, rejected, t):
        """Exact incremental fix: each ghost enters one edge cell linearly."""
        if next_block.shape[1] == 0:
            return next_block
        fixed = next_block.copy()
        for k, speculated, actual in rejected:
            idx = self._ghost_index(rank, k)
            wrong = float(speculated[0, idx])
            right_val = float(actual[0, idx])
            local = 0 if k == rank - 1 else -1
            fixed[0, local] += self.c2 * (right_val - wrong)
        return fixed

    def correct_ops(self, rank, inputs, k, speculated, actual, t):
        return 4.0 if inputs[rank].shape[1] else 0.0

    # --------------------------------------------------------- cost model
    def compute_ops(self, rank: int) -> float:
        return CELL_FLOPS * len(self.partition.indices(rank))

    def speculate_ops(self, rank: int, k: int) -> float:
        return 8.0

    def check_ops(self, rank: int, k: int) -> float:
        return 4.0

    def block_nbytes(self, rank: int) -> int:
        return 16 * len(self.partition.indices(rank)) + 32

    # ---------------------------------------------------------- reporting
    def gather(self, blocks: Mapping[int, np.ndarray]) -> np.ndarray:
        """Reassemble the displacement field u(T)."""
        out = np.empty_like(self.u0)
        for rank, idx in enumerate(self.partition):
            out[idx] = blocks[rank][0]
        return out

    def reference(self) -> np.ndarray:
        """Serial ground truth after ``iterations`` steps."""
        u_now = self.u0.copy()
        u_prev = self.u0.copy()
        for _ in range(self.iterations):
            padded = np.concatenate([[0.0], u_now, [0.0]])
            lap = padded[:-2] - 2.0 * padded[1:-1] + padded[2:]
            u_next = 2.0 * u_now - u_prev + self.c2 * lap
            u_prev, u_now = u_now, u_next
        return u_now

    def energy(self, blocks: Mapping[int, np.ndarray]) -> float:
        """Discrete energy ~ Σ (du/dt)² + c² (du/dx)² (approximately
        conserved by the leapfrog scheme)."""
        u_now = np.empty_like(self.u0)
        u_prev = np.empty_like(self.u0)
        for rank, idx in enumerate(self.partition):
            u_now[idx] = blocks[rank][0]
            u_prev[idx] = blocks[rank][1]
        kinetic = float(np.sum((u_now - u_prev) ** 2))
        grad = np.diff(np.concatenate([[0.0], u_now, [0.0]]))
        return kinetic + self.c2 * float(np.sum(grad**2))
