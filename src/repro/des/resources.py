"""The blocking container of the discrete-event kernel.

:class:`Store` is the mailbox of a virtual processor (:mod:`repro.vm`)
that a program run through ``Cluster.run`` receives from.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.des.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.environment import Environment


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; triggers with the retrieved item."""

    __slots__ = ("filter",)

    def __init__(self, store: "Store", filter: Optional[Callable[[Any], bool]] = None) -> None:
        super().__init__(store.env)
        self.filter = filter
        store._get_queue.append(self)
        store._serve()


class Store:
    """Unbounded FIFO container with blocking ``get``.

    Parameters
    ----------
    env:
        Owning environment.

    Notes
    -----
    * ``put(item)`` never blocks and costs no calendar event: the item
      is stored on the spot, and only a waiting ``get`` it satisfies is
      scheduled.
    * ``get(filter=...)`` retrieves the first item satisfying the
      predicate (a *filter store*), used to receive a message from a
      specific sender.
    * :attr:`items` may be inspected (but not mutated).
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.items: deque[Any] = deque()
        self._get_queue: deque[StoreGet] = deque()

    def put(self, item: Any) -> None:
        """Store ``item`` now and wake the first waiting get it satisfies."""
        self.items.append(item)
        if self._get_queue:
            self._serve()

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Request to remove an item; returns an event carrying the item.

        With ``filter``, the first queued item satisfying the predicate
        is returned (order among matching items preserved).
        """
        return StoreGet(self, filter)

    # -- internal ---------------------------------------------------------
    def _do_get(self, event: StoreGet) -> bool:
        if event.filter is None:
            if self.items:
                event.succeed(self.items.popleft())
                return True
            return False
        for i, item in enumerate(self.items):
            if event.filter(item):
                del self.items[i]
                event.succeed(item)
                return True
        return False

    def _serve(self) -> None:
        """Hand stored items to the waiting gets, oldest request first.

        A filter get deeper in the queue may match even if the head
        does not, so the whole get queue is scanned.
        """
        waiting: deque[StoreGet] = deque()
        for event in self._get_queue:
            if not self._do_get(event):
                waiting.append(event)
        self._get_queue = waiting

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        return f"<Store items={len(self.items)}>"
