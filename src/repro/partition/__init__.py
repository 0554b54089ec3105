"""Capacity-proportional partitioning of variables over processors.

Implements the load-balancing conditions of the paper (Eq. 4–5): the
N variables are split into p disjoint subsets with |X_i| proportional
to the processor capacity M_i, so the computation phase takes equal
time on every processor.
"""

from repro.partition.partition import (
    Partition,
    proportional_counts,
    proportional_partition,
)

__all__ = [
    "Partition",
    "proportional_counts",
    "proportional_partition",
]
