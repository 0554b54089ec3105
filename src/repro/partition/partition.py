"""Partitioning of N variables over p heterogeneous processors.

The paper's load-balancing conditions (Section 4, Eq. 4–5)::

    N_i / M_i = N_j / M_j   for all i, j        (proportionality)
    sum_i N_i = N                               (completeness)

Integer rounding makes exact proportionality impossible in general;
:func:`proportional_counts` uses the largest-remainder method, which
satisfies completeness exactly and proportionality within one variable
per processor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Partition:
    """A disjoint assignment of variable indices ``0..n-1`` to processors.

    Attributes
    ----------
    n:
        Total number of variables.
    assignments:
        Tuple of index arrays, one per processor; ``assignments[i]`` are
        the variable indices owned by processor ``i``.
    """

    n: int
    assignments: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        seen = np.concatenate([np.asarray(a, dtype=np.intp) for a in self.assignments]) \
            if self.assignments else np.empty(0, dtype=np.intp)
        if seen.size != self.n:
            raise ValueError(
                f"partition covers {seen.size} of {self.n} variables"
            )
        # Range first: bincount rejects negatives with its own error.  (No
        # np.unique: it imports numpy.ma, ~1.5 MiB, on every build.)
        if seen.size and (seen.min() < 0 or seen.max() >= self.n
                          or np.bincount(seen).max() > 1):
            raise ValueError("partition assignments must be a disjoint cover of range(n)")

    @property
    def nprocs(self) -> int:
        """Number of processors in the partition."""
        return len(self.assignments)

    @property
    def counts(self) -> tuple[int, ...]:
        """Number of variables per processor (the paper's N_i)."""
        return tuple(len(a) for a in self.assignments)

    def indices(self, rank: int) -> np.ndarray:
        """The variable indices owned by processor ``rank``."""
        return self.assignments[rank]

    def __iter__(self):
        return iter(self.assignments)


def proportional_counts(n: int, capacities: Sequence[float]) -> list[int]:
    """Split ``n`` items proportionally to ``capacities`` (Eq. 4–5).

    Uses the largest-remainder (Hamilton) method: exact total, and each
    count within one item of the ideal real-valued share.

    Parameters
    ----------
    n:
        Total number of items (>= 0).
    capacities:
        Positive per-processor capacities M_i.

    Returns
    -------
    list of ints summing exactly to ``n``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    caps = np.asarray(capacities, dtype=float)
    if caps.ndim != 1 or caps.size == 0:
        raise ValueError("capacities must be a non-empty 1-D sequence")
    if np.any(caps <= 0):
        raise ValueError("capacities must all be positive")

    shares = n * caps / caps.sum()
    counts = np.floor(shares).astype(int)
    remainder = n - int(counts.sum())
    if remainder:
        # Give the leftover items to the largest fractional shares;
        # ties broken by processor order (deterministic).
        frac = shares - counts
        order = np.lexsort((np.arange(caps.size), -frac))
        counts[order[:remainder]] += 1
    return counts.tolist()


def proportional_partition(n: int, capacities: Sequence[float]) -> Partition:
    """Contiguous-block partition with capacity-proportional counts.

    Processor 0 (the fastest, by the paper's convention) receives the
    first block, and so on.
    """
    counts = proportional_counts(n, capacities)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    assignments = tuple(
        np.arange(bounds[i], bounds[i + 1], dtype=np.intp) for i in range(len(counts))
    )
    return Partition(n=n, assignments=assignments)

