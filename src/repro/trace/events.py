"""Protocol trace events: the dynamic counterpart of the static model.

While :mod:`repro.trace.phases` records *how long* each protocol phase
took, this module records *what happened in what order*: every send,
receive, speculation, verification and correction as a timestamped,
per-rank-sequenced :class:`TraceEvent`.  The resulting
:class:`EventLog` is exactly the input the specflow trace-replay
analysis (:mod:`repro.analysis.replay`) consumes to confirm or refute
static happens-before findings against a real execution.

Event logs are produced by every backend: ``RunConfig(record_trace=True)``
asks for one wherever the run happens, and it comes back as
``RunReport.event_log``.

* the simulator — every :class:`~repro.vm.processor.VirtualProcessor`
  send/receive is recorded on the cluster's log, and each rank's
  transport adds the engine's speculate/verify/correct events,
  stamped with virtual time;
* the multiprocessing backend — each worker logs its protocol steps,
  merged by the parent into one :class:`EventLog`;
* the loopback backend — stamped with the scheduler's step counter.

Logs round-trip through JSON-lines files (``save``/``load``) so a run
recorded once can be replayed by ``repro analyze --trace`` forever.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Hashable, Iterable, Iterator, Optional, Tuple

from repro.trace.records import record

#: Canonical event kinds (the alphabet of the protocol state machine).
EVENT_KINDS = (
    "send",       # message handed to the transport       (peer = dst)
    "recv",       # message consumed by the application   (peer = src)
    "speculate",  # missing input predicted               (peer = src)
    "verify",     # speculated input checked vs actual    (peer = src)
    "correct",    # rejected speculation repaired         (peer = src)
    "compute",    # one iteration's compute step entered  (peer = None)
    "window",     # window policy moved the rank's FW     (peer = new FW)
    "fault",      # injected fault perturbed an arrival   (peer = src)
    "retransmit", # engine requested a retransmission     (peer = src)
    "degraded",   # degraded-window mode flipped          (peer = active)
)
_KNOWN_KINDS = frozenset(EVENT_KINDS)


def split_tag(tag: Hashable) -> Tuple[Optional[str], Optional[int]]:
    """Decompose a protocol tag into ``(family, iteration)``.

    The protocol convention is ``(family, iteration)`` tuples; a pair
    whose second item is not an integer keeps the family and drops the
    remainder.  Anything else maps to ``(str(tag) or None, None)``.
    """
    if tag is None:
        return None, None
    if isinstance(tag, tuple) and len(tag) == 2:
        family = tag[0] if isinstance(tag[0], str) else str(tag[0])
        iteration = tag[1] if isinstance(tag[1], int) else None
        return family, iteration
    if isinstance(tag, str):
        return tag, None
    return str(tag), None


@record
@dataclass(frozen=True, order=True)
class TraceEvent:
    """One protocol step on one rank.

    Attributes
    ----------
    rank:
        The rank the step happened on.
    seq:
        Per-rank program-order sequence number (0, 1, 2 ... within the
        rank).  ``(rank, seq)`` totally orders each rank's events and
        is the backbone of the happens-before graph.
    kind:
        One of :data:`EVENT_KINDS`.
    time:
        Timestamp — virtual seconds for the simulator, wall seconds
        (relative to the run start) for the multiprocessing backend.
        Informational only: replay ordering uses ``seq`` + message
        matching, never the clock.
    peer:
        The other rank involved (dst for sends, src otherwise), or
        None.
    family:
        Message-tag family (``"vars"``, ``"barrier-in"``, ...), or
        None for non-message events.
    iteration:
        Protocol iteration the step belongs to, when known.
    """

    rank: int
    seq: int
    kind: str
    time: float
    peer: Optional[int] = None
    family: Optional[str] = None
    iteration: Optional[int] = None

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (one JSONL record)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, record: dict[str, object]) -> "TraceEvent":
        """Inverse of :meth:`to_dict` (unknown keys are rejected)."""
        return cls(**record)  # type: ignore[arg-type]


class EventLog:
    """Append-only, per-rank-sequenced log of :class:`TraceEvent`.

    The log hands out sequence numbers itself: callers only say *what*
    happened, the log pins down the per-rank order.

    ``max_events`` caps the log for long-running use: once full, new
    events are counted in :attr:`dropped` instead of stored, so the
    log is a faithful *prefix* of the run (per-rank sequence numbers
    stay contiguous) plus an honest count of what it missed.  The
    default (``None``, unbounded) keeps recorded traces byte-identical
    for the replay tooling.
    """

    def __init__(
        self,
        events: Optional[Iterable[TraceEvent]] = None,
        max_events: Optional[int] = None,
    ) -> None:
        if max_events is not None and max_events < 0:
            raise ValueError("max_events must be >= 0 (or None for unbounded)")
        self.max_events = max_events
        self.dropped = 0
        self.events: list[TraceEvent] = []
        self._next_seq: dict[int, int] = {}
        if events is not None:
            self.extend(events)

    def _full(self) -> bool:
        return self.max_events is not None and len(self.events) >= self.max_events

    # ------------------------------------------------------------ recording
    def record(
        self,
        kind: str,
        rank: int,
        time: float,
        peer: Optional[int] = None,
        family: Optional[str] = None,
        iteration: Optional[int] = None,
    ) -> TraceEvent:
        """Append one event, assigning the rank's next sequence number.

        When the ``max_events`` cap is reached the event is *built but
        not stored* (the drop is counted and the rank's sequence
        counter is left untouched, keeping the stored log a contiguous
        per-rank prefix).
        """
        if kind not in _KNOWN_KINDS:
            raise ValueError(f"unknown trace-event kind {kind!r}")
        seq = self._next_seq.get(rank, 0)
        event = TraceEvent(rank, seq, kind, float(time), peer, family, iteration)
        if self._full():
            self.dropped += 1
            return event
        self._next_seq[rank] = seq + 1
        self.events.append(event)
        return event

    def record_message(
        self, kind: str, rank: int, time: float, peer: int, tag: Hashable,
    ) -> TraceEvent:
        """Record a send/recv, splitting ``tag`` into family + iteration."""
        family, iteration = split_tag(tag)
        return self.record(kind, rank, time, peer, family, iteration)

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Merge pre-sequenced events (e.g. from a worker process).

        Respects the ``max_events`` cap like :meth:`record`: events
        beyond the cap are counted as dropped, not stored.
        """
        for ev in events:
            if self._full():
                self.dropped += 1
                continue
            self.events.append(ev)
            nxt = self._next_seq.get(ev.rank, 0)
            self._next_seq[ev.rank] = max(nxt, ev.seq + 1)

    # ------------------------------------------------------------- queries
    def ranks(self) -> list[int]:
        """Sorted ranks present in the log."""
        return sorted({ev.rank for ev in self.events})

    def for_rank(self, rank: int) -> list[TraceEvent]:
        """One rank's events in program (seq) order."""
        return sorted(
            (ev for ev in self.events if ev.rank == rank),
            key=lambda ev: ev.seq,
        )

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All events of one kind, (rank, seq) order."""
        return sorted(ev for ev in self.events if ev.kind == kind)

    def summary(self) -> dict[str, object]:
        """Shape of the log: sizes, per-kind counts, drops (JSON-ready)."""
        counts: dict[str, int] = {}
        for ev in self.events:
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
        return {
            "events": len(self.events),
            "ranks": self.ranks(),
            "kinds": dict(sorted(counts.items())),
            "max_events": self.max_events,
            "dropped": self.dropped,
        }

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(sorted(self.events))

    def __repr__(self) -> str:
        return f"<EventLog events={len(self.events)} ranks={self.ranks()}>"

    # ----------------------------------------------------------- JSONL I/O
    def save(self, path: str | Path) -> None:
        """Write the log as JSON-lines (one event per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            for ev in sorted(self.events):
                fh.write(json.dumps(ev.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "EventLog":
        """Read a JSON-lines log written by :meth:`save`."""
        events = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    events.append(TraceEvent.from_dict(json.loads(line)))
        return cls(events)
