"""Unit + property tests for capacity-proportional partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import (
    Partition,
    proportional_counts,
    proportional_partition,
)


def test_counts_sum_to_n():
    assert sum(proportional_counts(1000, [10, 5, 1])) == 1000


def test_counts_proportional_homogeneous():
    assert proportional_counts(100, [1, 1, 1, 1]) == [25, 25, 25, 25]


def test_counts_exact_ratios():
    assert proportional_counts(160, [3.0, 1.0]) == [120, 40]


def test_counts_largest_remainder_tie_break_by_order():
    # shares = 1.5, 1.5 -> one leftover goes to processor 0
    assert proportional_counts(3, [1.0, 1.0]) == [2, 1]


def test_counts_zero_items():
    assert proportional_counts(0, [2.0, 1.0]) == [0, 0]


def test_counts_rejects_bad_input():
    with pytest.raises(ValueError):
        proportional_counts(-1, [1.0])
    with pytest.raises(ValueError):
        proportional_counts(10, [])
    with pytest.raises(ValueError):
        proportional_counts(10, [1.0, 0.0])
    with pytest.raises(ValueError):
        proportional_counts(10, [1.0, -2.0])


def test_counts_within_one_of_ideal_share():
    caps = [10, 9.4, 8.8, 8.2, 7.6, 7.0, 6.4, 5.8]
    n = 1000
    counts = proportional_counts(n, caps)
    shares = [n * c / sum(caps) for c in caps]
    for count, share in zip(counts, shares):
        assert abs(count - share) < 1.0


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=5000),
    caps=st.lists(st.floats(min_value=0.01, max_value=100.0, allow_nan=False), min_size=1, max_size=32),
)
def test_property_counts_complete_and_bounded(n, caps):
    counts = proportional_counts(n, caps)
    assert sum(counts) == n
    assert all(c >= 0 for c in counts)
    total = sum(caps)
    for count, cap in zip(counts, caps):
        assert abs(count - n * cap / total) < 1.0 + 1e-9


def test_partition_disjoint_cover():
    part = proportional_partition(100, [2.0, 1.0, 1.0])
    allidx = np.concatenate(part.assignments)
    assert sorted(allidx.tolist()) == list(range(100))
    assert part.counts == (50, 25, 25)
    assert part.nprocs == 3


def test_partition_indices_accessor():
    part = proportional_partition(6, [1.0, 2.0])
    np.testing.assert_array_equal(part.indices(0), [0, 1])
    np.testing.assert_array_equal(part.indices(1), [2, 3, 4, 5])


def test_partition_iterable():
    part = proportional_partition(4, [1.0, 1.0])
    blocks = list(part)
    assert len(blocks) == 2


def test_partition_validates_cover():
    with pytest.raises(ValueError):
        Partition(n=4, assignments=(np.array([0, 1]), np.array([2])))  # missing 3
    with pytest.raises(ValueError):
        Partition(n=3, assignments=(np.array([0, 1]), np.array([1, 2])))  # overlap
    with pytest.raises(ValueError):
        Partition(n=2, assignments=(np.array([0, 5]),))  # out of range


def test_paper_linear_gradient_partition():
    """The Section-4 platform: 16 processors, M_1 = 10 x M_16, linear."""
    caps = [10 - 9 * i / 15 for i in range(16)]
    part = proportional_partition(1000, caps)
    counts = part.counts
    assert sum(counts) == 1000
    # Fastest processor gets ~10x the slowest's share.
    assert counts[0] / counts[15] == pytest.approx(10.0, rel=0.1)
    # Monotone non-increasing allocation.
    assert all(a >= b for a, b in zip(counts, counts[1:]))
