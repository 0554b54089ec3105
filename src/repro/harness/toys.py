"""Minimal programs for the timeline illustrations (Fig. 2 and Fig. 4).

The paper's Fig. 2 contrasts three two-processor executions of an
abstract synchronous iterative algorithm: blocking, speculation always
acceptable, and speculation always rejected.  These programs realise
the two extremes with trivial numerics so the timelines are clean.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.program import SyncIterativeProgram
from repro.core.receive_driven import IncrementalProgram


class ConstantProgram(SyncIterativeProgram):
    """State never changes, so any hold-based speculation is exact.

    Used for Fig. 2(b): every speculated value is good and acceptable.
    Speculating or checking a block costs 5 % of a compute.
    """

    def __init__(
        self,
        nprocs: int,
        iterations: int,
        ops_per_compute: float = 1e6,
        block_size: int = 8,
        **kwargs,
    ) -> None:
        kwargs.setdefault("threshold", 0.0)
        super().__init__(nprocs, iterations, **kwargs)
        self.ops_per_compute = ops_per_compute
        self.block_size = block_size

    def initial_block(self, rank: int) -> np.ndarray:
        return np.full(self.block_size, float(rank))

    def compute(self, rank: int, inputs: Mapping[int, np.ndarray], t: int) -> np.ndarray:
        # Touch every input so the data dependency is real, then return
        # the unchanged own block.
        _ = sum(float(np.sum(inputs[k])) for k in inputs)
        return inputs[rank].copy()

    def compute_ops(self, rank: int) -> float:
        return self.ops_per_compute

    def speculate_ops(self, rank: int, k: int) -> float:
        return self.ops_per_compute * 0.05

    def check_ops(self, rank: int, k: int) -> float:
        return self.ops_per_compute * 0.05

    def block_nbytes(self, rank: int) -> int:
        return 8 * self.block_size


class IncrementalConstantProgram(ConstantProgram, IncrementalProgram):
    """Constant-state program with the Fig. 7 incremental decomposition.

    ``begin`` does the own-block share of the work, each ``absorb`` one
    remote block's share; the compute cost is split evenly so the
    incremental run charges exactly ``ops_per_compute`` per iteration.
    """

    def begin(self, rank, own, t):
        return float(np.sum(own))

    def absorb(self, rank, acc, k, block, t):
        return acc + float(np.sum(block))

    def finish(self, rank, acc, own, t):
        _ = acc
        return own.copy()

    def begin_ops(self, rank: int) -> float:
        return self.ops_per_compute / self.nprocs

    def absorb_ops(self, rank: int, k: int) -> float:
        return self.ops_per_compute / self.nprocs

    def finish_ops(self, rank: int) -> float:
        return 0.0


class JumpyProgram(ConstantProgram):
    """State jumps unpredictably, so every speculation is rejected.

    Used for Fig. 2(c): each speculated value is found unacceptable and
    the computation is redone (full recomputation penalty).
    """

    def compute(self, rank: int, inputs: Mapping[int, np.ndarray], t: int) -> np.ndarray:
        _ = sum(float(np.sum(inputs[k])) for k in inputs)
        # A deterministic but extrapolation-proof jump.
        jump = np.sin(12345.678 * (t + 1) * (rank + 1)) * 100.0
        return inputs[rank] + jump
