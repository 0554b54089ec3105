"""Property tests for the backward-window :class:`HistoryRing`.

Hand-rolled seeded randomization checks the ring against a reference
model — a plain list trimmed with ``del ref[:-cap]``, exactly the idiom
the ring replaced in the pipe worker — across many random append
sequences.
"""

import numpy as np
import pytest

from repro.engine import HistoryRing, OutOfOrderArrival


def random_sequences(seed, n_cases=200):
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        cap = int(rng.integers(1, 8))
        n = int(rng.integers(0, 30))
        # Strictly increasing times with random gaps (skipped
        # iterations model messages the transport delivered late
        # enough to be pruned by the protocol).
        times = np.cumsum(rng.integers(1, 4, size=n)).tolist()
        yield cap, [(int(t), float(rng.normal())) for t in times]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ring_matches_list_trim_reference_model(seed):
    for cap, samples in random_sequences(seed):
        ring = HistoryRing(cap)
        ref = []
        for t, v in samples:
            ring.append(t, v)
            ref.append((t, v))
            del ref[:-cap]  # the replaced copy-pasted trim idiom
            assert list(ring) == ref
            assert ring.times() == [t_ for t_, _ in ref]
            assert ring.series() == ([t_ for t_, _ in ref], [v_ for _, v_ in ref])
            assert len(ring) == len(ref) <= cap


@pytest.mark.parametrize("seed", [3, 4])
def test_ring_times_strictly_increasing_and_newest_kept(seed):
    for cap, samples in random_sequences(seed):
        ring = HistoryRing(cap)
        for t, v in samples:
            ring.append(t, v)
        times = ring.times()
        assert times == sorted(times)
        assert len(set(times)) == len(times)
        if samples:
            # Always the *newest* entries survive trimming.
            assert times == [t for t, _ in samples][-cap:]


def test_out_of_order_append_raises():
    ring = HistoryRing(4, initial=(3, "x"))
    with pytest.raises(OutOfOrderArrival):
        ring.append(3, "dup")
    with pytest.raises(OutOfOrderArrival):
        ring.append(1, "past")
    ring.append(4, "ok")  # still usable after the rejected appends
    assert ring.times() == [3, 4]


def test_ordering_enforced_across_trim_boundary():
    """A time older than everything *retained* but newer than what was
    trimmed must still be rejected: the invariant is against the
    newest-ever sample, not just the survivors."""
    ring = HistoryRing(2)
    for t in (1, 2, 3, 4):
        ring.append(t, t)
    assert ring.times() == [3, 4]
    with pytest.raises(OutOfOrderArrival):
        ring.append(4, "repeat")


def test_constructor_validation_and_initial():
    with pytest.raises(ValueError):
        HistoryRing(0)
    ring = HistoryRing(3, initial=(0, "seed"))
    assert ring.capacity == 3
    assert list(ring) == [(0, "seed")]


def test_series_of_an_empty_ring_is_two_empty_lists():
    """A ring emptied of samples never happens in the engine (X(0) is
    its seed), but ``series`` must not unpack an empty ``zip``."""
    assert HistoryRing(3).series() == ([], [])


def test_series_returns_fresh_lists():
    ring = HistoryRing(3, initial=(0, "a"))
    ring.append(2, "b")
    times, values = ring.series()
    assert (times, values) == ([0, 2], ["a", "b"])
    assert type(times) is list and type(values) is list
    times.append(99)
    values.clear()
    assert ring.series() == ([0, 2], ["a", "b"])
    assert ring.series()[0] is not ring.series()[0]
