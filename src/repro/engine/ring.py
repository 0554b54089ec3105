"""The backward-window history ring.

Every backend keeps, per remote rank, the last BW received actuals —
the backward window the speculators extrapolate from (Section 3.2).
The trim logic used to be copy-pasted three times
(``del history[k][:-bw_cap]`` in the pipe worker, a bare ``deque`` in
the DES driver); :class:`HistoryRing` is the single implementation,
with the protocol's ordering invariant built in.

Invariants (property-tested in ``tests/test_engine_ring.py``):

* times are strictly increasing — an out-of-order append raises;
* at most ``capacity`` entries are retained, always the newest ones;
* ``times()``/``values()`` views are consistent and aligned.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterator, List, Optional, Tuple


class OutOfOrderArrival(RuntimeError):
    """A history append went backwards in iteration time.

    The speculative protocol assumes per-pair FIFO delivery; a
    violation means the transport reordered a conversation (exactly
    the SPF111 failure mode) and speculation state is corrupt.
    """


class HistoryRing:
    """Bounded, strictly time-ordered ring of ``(t, value)`` samples."""

    __slots__ = ("_items",)

    def __init__(
        self,
        capacity: int,
        initial: Optional[Tuple[int, Any]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._items: Deque[Tuple[int, Any]] = deque(maxlen=capacity)
        if initial is not None:
            self._items.append((int(initial[0]), initial[1]))

    # ----------------------------------------------------------- mutation
    def append(self, t: int, value: Any) -> None:
        """Record the actual value of iteration ``t`` (strictly newer
        than everything already held)."""
        if self._items and self._items[-1][0] >= t:
            raise OutOfOrderArrival(
                f"history append out of order: got t={t} after "
                f"t={self._items[-1][0]}"
            )
        self._items.append((t, value))

    # ------------------------------------------------------------ queries
    @property
    def capacity(self) -> int:
        """Maximum retained samples (the backward window bound)."""
        assert self._items.maxlen is not None
        return self._items.maxlen

    def times(self) -> List[int]:
        """Iteration numbers of the held samples, oldest first."""
        return [t for t, _ in self._items]

    def values(self) -> List[Any]:
        """Sample values aligned with :meth:`times`."""
        return [v for _, v in self._items]

    def series(self) -> Tuple[List[int], List[Any]]:
        """``(times, values)`` — the speculator's input signature."""
        return self.times(), self.values()

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Tuple[int, Any]]:
        return iter(self._items)

    def __repr__(self) -> str:
        return (
            f"<HistoryRing cap={self.capacity} times={self.times()!r}>"
        )
