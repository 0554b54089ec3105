"""One view of a recorded trace, one verdict about it.

``repro analyze --trace LOG`` judges the static findings, and the
protocol's occupancy bounds, against a recorded
:class:`~repro.trace.events.EventLog`.  Its two contract sets ask the
log overlapping questions — a rank's events in program order, how
many events of a kind there are, which receive consumed which send,
the events in time order — and :class:`TraceView` answers each of
them once: one grouping pass when it is built, the matching and the
time ordering on first use.  The matched pairs are the edge list of
the trace read as a task graph (Eijkhout, PAPERS.md).

Every contract answers with the same :class:`Verdict`, in one of three
statuses: :data:`CONFIRMED`, :data:`REFUTED`, :data:`UNOBSERVED`.  A
REFUTED occupancy bound fails the run; a protocol verdict only
reports, and the replay findings behind it fail the run.  A family's
hook into ``--trace`` is its ``judge``
(:data:`repro.analysis.tools.Judge`), and the run parameters a judge
needs come from the trace's own
:class:`~repro.trace.events.TraceHeader` (:attr:`TraceView.header`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.trace.events import EventLog, TraceEvent, TraceHeader

CONFIRMED = "CONFIRMED"
REFUTED = "REFUTED"
UNOBSERVED = "UNOBSERVED"

#: ``(pairs, unmatched sends, unmatched receives)``.
Matching = tuple[
    list[tuple[TraceEvent, TraceEvent]], list[TraceEvent], list[TraceEvent]
]


@dataclass(frozen=True)
class Verdict:
    """One claim judged against a recorded trace."""

    #: The contract family: ``protocol-contract`` or
    #: ``occupancy-contract``.
    kind: str
    #: What was judged: a rule code, or an occupancy metric.
    rule: str
    #: Its scope as printed — ``[run]``, ``[rank 3]`` — or empty.
    where: str
    status: str
    #: The measured and the allowed quantity, where the contract has them.
    observed: Optional[float]
    bound: Optional[float]
    detail: str

    def format_text(self) -> str:
        """``occupancy-contract inbox [rank 1]: REFUTED — ...`` (one line)."""
        head = " ".join(part for part in (self.kind, self.rule, self.where) if part)
        return f"{head}: {self.status} — {self.detail}"


def match_messages(view: TraceView) -> Matching:
    """Pair each send with the receive that consumed it.

    Matching key is ``(src, dst, family, iteration)``; within a key,
    sends and receives pair FIFO in ``(rank, seq)`` order (the
    transports preserve per-pair order, and the iteration sub-tag
    disambiguates the rest).
    """
    pending: dict[
        tuple[int, Optional[int], Optional[str], Optional[int]], list[TraceEvent]
    ] = {}
    recvs: list[TraceEvent] = []
    for events in view.by_rank.values():
        for ev in events:
            if ev.kind == "send":
                key = (ev.rank, ev.peer, ev.family, ev.iteration)
                pending.setdefault(key, []).append(ev)
            elif ev.kind == "recv":
                recvs.append(ev)
    pairs: list[tuple[TraceEvent, TraceEvent]] = []
    unmatched_recvs: list[TraceEvent] = []
    for ev in recvs:
        src = ev.peer if ev.peer is not None else -1
        queue = pending.get((src, ev.rank, ev.family, ev.iteration))
        if queue:
            pairs.append((queue.pop(0), ev))
        else:
            unmatched_recvs.append(ev)
    unmatched_sends = [ev for queue in pending.values() for ev in queue]
    return pairs, sorted(unmatched_sends), unmatched_recvs


class TraceView:
    """What the contracts read of one event log, each computed once."""

    def __init__(self, log: EventLog) -> None:
        #: The run's parameters (p, iterations, the window's ceiling,
        #: the ring capacity); None only for a hand-built log.
        self.header: Optional[TraceHeader] = log.header
        #: Every event, in recording order.
        self.events: list[TraceEvent] = log.events
        #: Events per kind (absent kinds count 0).
        self.kind_counts: Counter[str] = Counter()
        by_rank: dict[int, list[TraceEvent]] = {}
        for ev in log.events:
            by_rank.setdefault(ev.rank, []).append(ev)
            self.kind_counts[ev.kind] += 1
        for events in by_rank.values():
            events.sort(key=lambda ev: ev.seq)
        #: ``rank -> its events in program (seq) order``, ranks ascending.
        self.by_rank: dict[int, list[TraceEvent]] = dict(sorted(by_rank.items()))

    def required_header(self) -> TraceHeader:
        """:attr:`header`, for a judge that cannot work without it."""
        if self.header is None:
            raise ValueError("the trace has no header to judge it at")
        return self.header

    @cached_property
    def matching(self) -> Matching:
        """The one message-matching pass (see :func:`match_messages`)."""
        return match_messages(self)

    @cached_property
    def time_ordered(self) -> list[TraceEvent]:
        """Global replay order: by time, sends before the recvs they feed."""
        return sorted(
            self.events,
            key=lambda ev: (ev.time, ev.kind != "send", ev.rank, ev.seq),
        )

