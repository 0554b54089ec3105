"""Processor capacity specifications.

The paper characterises each workstation by a single capacity number
M_i — operations per second, measured by timing a small operation
sequence.  Processors are indexed by decreasing capacity: M_1 >= M_2
>= ... >= M_p, and a "p-processor execution" always means the fastest
p processors.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ProcessorSpec:
    """Static description of one virtual processor.

    Attributes
    ----------
    name:
        Human-readable label (e.g. ``"SparcStation 10/1"``).
    capacity:
        Operations per virtual second (the paper's M_i).
    """

    name: str
    capacity: float

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")

    def seconds_for(self, ops: float) -> float:
        """Virtual seconds needed to execute ``ops`` operations."""
        if ops < 0:
            raise ValueError("ops must be >= 0")
        return ops / self.capacity


def linear_gradient_specs(
    p: int = 16,
    fastest: float = 120e6,
    ratio: float = 10.0,
    name_prefix: str = "cpu",
) -> list[ProcessorSpec]:
    """Capacities falling linearly from ``fastest`` to ``fastest/ratio``.

    This is the Section-4 model platform: "processor computing
    abilities vary linearly with the fastest processor P1 being 10
    times faster than the slowest P16".  With ``p == 1`` the single
    processor has the ``fastest`` capacity.

    Parameters
    ----------
    p:
        Number of processors.
    fastest:
        Capacity of P1 in ops per second (default 120e6, the paper's
        120 MIPS SparcStation 10/1).
    ratio:
        M_1 / M_p.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if ratio < 1:
        raise ValueError("ratio must be >= 1")
    slowest = fastest / ratio
    if p == 1:
        caps = [fastest]
    else:
        step = (fastest - slowest) / (p - 1)
        caps = [fastest - i * step for i in range(p)]
    return [
        ProcessorSpec(name=f"{name_prefix}{i + 1}", capacity=c)
        for i, c in enumerate(caps)
    ]


def uniform_specs(p: int, capacity: float = 100e6, name_prefix: str = "cpu") -> list[ProcessorSpec]:
    """``p`` identical processors (homogeneous cluster)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return [ProcessorSpec(name=f"{name_prefix}{i + 1}", capacity=capacity) for i in range(p)]

