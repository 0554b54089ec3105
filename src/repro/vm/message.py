"""Message record exchanged between virtual processors."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Hashable, Optional

import numpy as np

from repro.trace.records import record


def payload_nbytes(payload: Any) -> int:
    """Best-effort wire size of a payload in bytes.

    numpy arrays report their exact buffer size; dict/list/tuple
    payloads are summed recursively; anything else falls back to
    ``sys.getsizeof``.  Applications that care about exact sizes should
    pass ``nbytes`` to ``send`` explicitly.
    """
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (list, tuple)):
        return sum(payload_nbytes(item) for item in payload) + 8 * len(payload)
    if isinstance(payload, dict):
        return sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items()
        ) + 16 * len(payload)
    if isinstance(payload, (int, float, complex, bool)) or payload is None:
        return 8
    if isinstance(payload, (str, bytes)):
        return len(payload)
    return int(sys.getsizeof(payload))


@record
@dataclass(frozen=True)
class Message:
    """One message in flight or delivered.

    The record is **frozen**: once a message is on the wire, nobody —
    sender, network model, or receiver — can rewrite its envelope or
    swap its payload for another object (the SPL005 aliasing class is
    ruled out at the record level; in-place mutation of a *shared
    ndarray* payload is still the sender's responsibility, which is what
    speclint's SPL005 checks).  The single legitimate
    post-construction update, stamping the delivery time, goes through
    :meth:`mark_delivered`.  One is built per send, so construction
    goes through :func:`~repro.trace.records.record`.

    Attributes
    ----------
    src, dst:
        Sender and receiver ranks.
    tag:
        Application tag used for selective receive (any hashable; the
        speculative driver uses ``("vars", iteration)``).
    payload:
        The data itself (typically numpy arrays — references are
        passed, matching PVM semantics within one simulation; receivers
        must not mutate payloads in place).
    nbytes:
        Wire size used by the network models.
    sent_at:
        Virtual send timestamp.
    delivered_at:
        Virtual delivery timestamp (stamped once on arrival at the
        mailbox via :meth:`mark_delivered`).
    """

    src: int
    dst: int
    tag: Hashable
    payload: Any
    nbytes: int
    sent_at: float
    delivered_at: Optional[float] = field(default=None, init=False, compare=False)

    def mark_delivered(self, now: float) -> None:
        """Stamp the delivery time (exactly once, at mailbox arrival)."""
        if self.delivered_at is not None:
            raise ValueError(f"message already delivered: {self!r}")
        if now < self.sent_at:
            raise ValueError(
                f"delivery at {now} precedes send at {self.sent_at}: {self!r}"
            )
        self.__dict__["delivered_at"] = now

    def matches(self, src: Optional[int] = None, tag: Optional[Hashable] = None) -> bool:
        """Selective-receive predicate (None = wildcard)."""
        if src is not None and self.src != src:
            return False
        if tag is not None and self.tag != tag:
            return False
        return True

    def __repr__(self) -> str:
        return (
            f"<Message {self.src}->{self.dst} tag={self.tag!r} "
            f"nbytes={self.nbytes} sent={self.sent_at:.6g}>"
        )
