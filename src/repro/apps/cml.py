"""Coupled map lattice: the *negative control* for speculation.

A diffusively coupled lattice of chaotic logistic maps::

    x_i(t+1) = (1−ε) f(x_i(t)) + ε/2 (f(x_{i−1}(t)) + f(x_{i+1}(t))),
    f(x) = r x (1 − x)

At r ≳ 3.57 the dynamics are chaotic: trajectories decorrelate within
a few iterations, so *no* history-based extrapolation can track them.
The paper's criterion — "speculation is most useful in applications
where the variables generally follow a relatively slow changing trend"
— predicts speculation should fail here, and this program exists to
verify that the framework degrades gracefully (rejections near 100 %,
performance falling back to roughly the blocking algorithm plus
overhead) rather than silently producing wrong answers.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.program import SyncIterativeProgram
from repro.core.speculators import ZeroOrderHold
from repro.partition import proportional_partition

#: Flops per site per update in the cost model.
SITE_FLOPS = 8.0


class CoupledMapLattice(SyncIterativeProgram):
    """Chaotic coupled map lattice as a SyncIterativeProgram.

    Parameters
    ----------
    initial:
        (n,) initial states in (0, 1).
    capacities:
        Per-processor capacities; sites allocated proportionally.
    iterations:
        Map iterations.
    r:
        Logistic parameter (3.57..4 = chaotic; < 3 = stable fixed
        point, where speculation suddenly works again).
    coupling:
        Diffusive coupling ε in [0, 1].
    threshold:
        Acceptance threshold on the consumed ghost-site error.
    """

    def __init__(
        self,
        initial: np.ndarray,
        capacities: Sequence[float],
        iterations: int,
        r: float = 3.9,
        coupling: float = 0.3,
        threshold: float = 1e-3,
        speculator=None,
    ) -> None:
        super().__init__(
            nprocs=len(capacities),
            iterations=iterations,
            threshold=threshold,
            speculator=speculator if speculator is not None else ZeroOrderHold(),
        )
        field = np.asarray(initial, dtype=float)
        if field.ndim != 1 or field.size < len(capacities):
            raise ValueError("initial must be 1-D with >= nprocs sites")
        if np.any((field <= 0) | (field >= 1)):
            raise ValueError("initial states must lie in (0, 1)")
        if not 0 < r <= 4:
            raise ValueError("r must be in (0, 4]")
        if not 0 <= coupling <= 1:
            raise ValueError("coupling must be in [0, 1]")
        self.x0 = field
        self.r = r
        self.coupling = coupling
        self.partition = proportional_partition(field.size, capacities)

    def _f(self, x: np.ndarray) -> np.ndarray:
        return self.r * x * (1.0 - x)

    # ----------------------------------------------------------- topology
    def needed(self, rank: int) -> frozenset[int]:
        """Adjacent strips (periodic boundary closes rank 0 to p-1)."""
        p = self.nprocs
        if p == 1:
            return frozenset()
        return frozenset({(rank - 1) % p, (rank + 1) % p} - {rank})

    # ----------------------------------------------------------- numerics
    def initial_block(self, rank: int) -> np.ndarray:
        return self.x0[self.partition.indices(rank)].copy()

    def compute(self, rank: int, inputs: Mapping[int, np.ndarray], t: int) -> np.ndarray:
        x = inputs[rank]
        if x.size == 0:
            return x.copy()
        p = self.nprocs
        left_block = inputs[(rank - 1) % p] if p > 1 else x
        right_block = inputs[(rank + 1) % p] if p > 1 else x
        left = float(left_block[-1]) if left_block.size else float(x[-1])
        right = float(right_block[0]) if right_block.size else float(x[0])
        fx = self._f(x)
        f_left = self._f(np.concatenate([[left], x[:-1]]))
        f_right = self._f(np.concatenate([x[1:], [right]]))
        return (1.0 - self.coupling) * fx + 0.5 * self.coupling * (f_left + f_right)

    def check(self, rank, k, speculated, actual, own):
        """Max absolute error over the consumed ghost sites.

        With p = 2 and periodic coupling, the same neighbour supplies
        *both* ghosts (its first and last site), so both are checked.
        """
        if np.asarray(actual).size == 0:
            return 0.0
        p = self.nprocs
        consumed = []
        if k == (rank - 1) % p:
            consumed.append(-1)
        if k == (rank + 1) % p:
            consumed.append(0)
        return max(
            abs(float(speculated[i]) - float(actual[i])) for i in consumed
        )

    # --------------------------------------------------------- cost model
    def compute_ops(self, rank: int) -> float:
        return SITE_FLOPS * len(self.partition.indices(rank))

    def speculate_ops(self, rank: int, k: int) -> float:
        return 4.0

    def check_ops(self, rank: int, k: int) -> float:
        return 2.0

    def block_nbytes(self, rank: int) -> int:
        return 8 * len(self.partition.indices(rank)) + 32

    # ---------------------------------------------------------- reporting
    def gather(self, blocks: Mapping[int, np.ndarray]) -> np.ndarray:
        """Reassemble the lattice state."""
        out = np.empty_like(self.x0)
        for rank, idx in enumerate(self.partition):
            out[idx] = blocks[rank]
        return out

    def reference(self) -> np.ndarray:
        """Serial ground truth after ``iterations`` steps."""
        x = self.x0.copy()
        for _ in range(self.iterations):
            fx = self._f(x)
            f_left = np.roll(fx, 1)
            f_right = np.roll(fx, -1)
            x = (1.0 - self.coupling) * fx + 0.5 * self.coupling * (f_left + f_right)
        return x
