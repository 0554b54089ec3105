"""Bounded configurations and scenario programs for specmc.

Model checking is exhaustive, so the programs it drives must be tiny
and *discriminating*: small enough that the full interleaving space of
``p`` engines over ``T`` iterations fits in CI time, rich enough that
every protocol path (speculate, verify, accept, correct, cascade) is
actually taken.  Two scenarios cover the two sides of the check:

``drift``
    Every block changes every iteration, the acceptance threshold is
    0, so *every* speculation is rejected — corrections and cascades
    fire on every resolved speculation.
``constant``
    Blocks never change, so zero-order-hold speculation is exact and
    *every* speculation is accepted — the verify/accept path.

Blocks are plain floats and every kernel is pure integer-free float
arithmetic, so replaying the same schedule is bit-identical and the
state fingerprints in :mod:`repro.analysis.modelcheck.model` are
exact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Optional

from repro.core.program import SyncIterativeProgram
from repro.policy import CostWindow, WindowPolicy

#: Hard bounds on the checkable configuration space (ISSUE 4 / the
#: docs' state-space model).  Beyond these the explicit-state search
#: stops being a CI-time proposition.
MAX_P = 3
MAX_FW = 2
MAX_BW = 2
MAX_ITERS = 4

SCENARIOS = ("drift", "constant")
CASCADES = ("recompute", "none")
WINDOWS = ("static", "cost")


@dataclass(frozen=True)
class McConfig:
    """One bounded model-checking configuration.

    Attributes mirror the protocol knobs: ``p`` engines, forward
    window ``fw``, backward window ``bw`` (the HistoryRing capacity is
    ``bw + 2``), ``iters`` iterations, the cascade policy, the window
    policy (``"static"`` keeps FW fixed; ``"cost"`` seats a
    one-iteration-epoch :class:`~repro.policy.CostWindow` in every
    engine, which reads the engines' deterministic op clock) and the
    scenario program.
    """

    p: int = 2
    fw: int = 1
    bw: int = 1
    iters: int = 3
    cascade: str = "recompute"
    scenario: str = "drift"
    window: str = "static"

    def __post_init__(self) -> None:
        if not 2 <= self.p <= MAX_P:
            raise ValueError(f"p must be in 2..{MAX_P} (got {self.p})")
        if not 0 <= self.fw <= MAX_FW:
            raise ValueError(f"fw must be in 0..{MAX_FW} (got {self.fw})")
        if not 0 <= self.bw <= MAX_BW:
            raise ValueError(f"bw must be in 0..{MAX_BW} (got {self.bw})")
        if not 1 <= self.iters <= MAX_ITERS:
            raise ValueError(
                f"iters must be in 1..{MAX_ITERS} (got {self.iters})"
            )
        if self.cascade not in CASCADES:
            raise ValueError(f"unknown cascade policy {self.cascade!r}")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.window not in WINDOWS:
            raise ValueError(f"unknown window policy {self.window!r}")

    @property
    def hist_cap(self) -> int:
        """HistoryRing capacity used for every engine."""
        return self.bw + 2

    def window_policy(self) -> Optional[WindowPolicy]:
        """The engine-seated window-policy template, if any.

        ``"cost"`` uses a one-iteration epoch with bounds ``[0, 2]``
        (the checkable FW range), so widen/shrink decisions happen on
        every iteration and the full window trajectory is explored
        within ``MAX_ITERS``.
        """
        if self.window == "cost":
            return CostWindow(epoch=1, min_fw=0, max_fw=MAX_FW)
        return None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (inverse of ``McConfig(**d)``)."""
        return asdict(self)

    def describe(self) -> str:
        """One-line human description."""
        return (
            f"p={self.p} fw={self.fw} bw={self.bw} iters={self.iters} "
            f"cascade={self.cascade} scenario={self.scenario} "
            f"window={self.window}"
        )


class DriftProgram(SyncIterativeProgram):
    """Every block drifts every iteration; theta = 0.

    Zero-order-hold speculation predicts "unchanged", the blocks never
    are, so every resolved speculation is rejected: the correct +
    cascade machinery runs on every check.  With ``fw <= 1`` the
    protocol's theta = 0 exactness guarantee applies, so the final
    blocks are *schedule-independent* — the anchor fact behind the
    determinism property tests.
    """

    def __init__(self, nprocs: int, iterations: int) -> None:
        super().__init__(nprocs, iterations, threshold=0.0)

    def initial_block(self, rank: int) -> float:
        return float(rank + 1)

    def compute(self, rank: int, inputs: Mapping[int, Any], t: int) -> float:
        total = 0.0
        for k in sorted(inputs):
            total += float(inputs[k])
        return float(inputs[rank]) + 0.5 * total + 1.0

    def compute_ops(self, rank: int) -> float:
        return 10.0

    def block_nbytes(self, rank: int) -> int:
        return 8


class ConstantProgram(SyncIterativeProgram):
    """Blocks never change; theta = 0.

    Zero-order-hold speculation is exact, so every speculation is
    accepted — the verify/accept path of the protocol, with no
    corrections at all.  Speculating and checking are cheap next to
    computing, so a seated cost-rule policy widens on waits here.
    """

    def __init__(self, nprocs: int, iterations: int) -> None:
        super().__init__(nprocs, iterations, threshold=0.0)

    def initial_block(self, rank: int) -> float:
        return float(rank + 1)

    def compute(self, rank: int, inputs: Mapping[int, Any], t: int) -> float:
        return float(inputs[rank])

    def compute_ops(self, rank: int) -> float:
        return 10.0

    def speculate_ops(self, rank: int, k: int) -> float:
        return 1.0

    def check_ops(self, rank: int, k: int) -> float:
        return 1.0

    def block_nbytes(self, rank: int) -> int:
        return 8


def build_program(config: McConfig) -> SyncIterativeProgram:
    """The scenario program for ``config``."""
    if config.scenario == "drift":
        return DriftProgram(config.p, config.iters)
    return ConstantProgram(config.p, config.iters)
