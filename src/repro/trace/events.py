"""Protocol trace events: the dynamic counterpart of the static model.

While :mod:`repro.trace.phases` records *how long* each protocol phase
took, this module records *what happened in what order*: every send,
receive, speculation, verification and correction as a timestamped,
per-rank-sequenced :class:`TraceEvent`, carrying what its sanitizer
hook reads.  ``RunConfig(record_trace=True)`` asks any backend for the
:class:`EventLog` (``RunReport.event_log``: virtual time on the
simulator, wall time on mp, the scheduler's step counter on loopback),
and :mod:`repro.analysis.replay` judges it.

Logs round-trip through JSON-lines files (``save``/``load``): the first
line is the run's :class:`TraceHeader` -- the parameters fixed before
the run that the trace's judges read -- and every other line one event.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Tuple

from repro.trace.records import record

#: Canonical event kinds (the alphabet of the protocol state machine)
#: -> the lengths a record's ``args`` may have: the integers its
#: sanitizer hook reads beyond peer and iteration
#: (:data:`repro.engine.observer.REPLAYED` turns them back into it).
EVENT_KINDS: dict[str, tuple[int, ...]] = {
    "send": (0,),        # handed to the transport (peer = dst)
    "recv": (0, 1),      # consumed (peer = src); (wire seq) on loopback / mp
    "speculate": (0,),   # missing input predicted (peer = src)
    "verify": (0,),      # speculation checked vs actual (peer = src)
    "correct": (1,),     # repaired (peer = src); (cascade's first iteration)
    "compute": (2,),     # iteration entered; (verified_upto, fw)
    "window": (3,),      # FW moved (peer = new FW); (old, min, max FW)
    "fault": (1,),       # injected fault on an arrival (peer = src); (wire seq)
    "retransmit": (2,),  # (peer = src, iteration = seq); (attempt, max_attempts)
    "degraded": (0,),    # degraded-window mode flipped (peer = active)
}


def check_args(kind: str, args: Tuple[int, ...]) -> None:
    """Refuse an unknown kind, or ``args`` that do not fit ``kind``."""
    arities = EVENT_KINDS.get(kind)
    if arities is None:
        raise ValueError(f"unknown trace-event kind {kind!r}")
    if len(args) not in arities or not all(type(a) is int for a in args):
        raise ValueError(f"{kind!r} record carries args {list(args)!r}; "
                         f"it takes {' or '.join(map(str, arities))} integer(s)")


#: Version of the JSONL layout :meth:`EventLog.save` writes: a header
#: line, then one event per line.
FORMAT = 2


@dataclass(frozen=True)
class TraceHeader:
    """The run parameters a recorded trace's judges read.

    Attributes
    ----------
    p:
        Ranks in the run.
    iterations:
        Protocol iterations the run was configured for.
    max_fw:
        The forward window's ceiling: the window policy's ``max_fw``,
        else the fixed ``fw`` (0 for the Fig. 7 baseline).
    hist_cap:
        Capacity of the engines' history rings.
    """

    p: int
    iterations: int
    max_fw: int
    hist_cap: int


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
    args:
        The further integers the kind's sanitizer hook reads (see
        :data:`EVENT_KINDS`); empty for most kinds.
    """

    rank: int
    seq: int
    kind: str
    time: float
    peer: Optional[int] = None
    family: Optional[str] = None
    iteration: Optional[int] = None
    args: Tuple[int, ...] = ()

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (one JSONL record; no ``args`` key
        when there are none)."""
        out = asdict(self)
        if not self.args:
            del out["args"]
        return out

    @classmethod
    def from_dict(cls, record: dict[str, object]) -> "TraceEvent":
        """Inverse of :meth:`to_dict` (unknown keys are rejected)."""
        return cls(**{**record, "args": tuple(record.get("args", ()))})  # type: ignore[arg-type]


class EventLog:
    """Append-only, per-rank-sequenced log of :class:`TraceEvent`.

    The log hands out sequence numbers itself: callers only say *what*
    happened, the log pins down the per-rank order.

    ``header`` is the run's :class:`TraceHeader`: a run stamps it on
    the log it recorded, and :meth:`save` refuses a log without one.
    """

    def __init__(
        self,
        events: Optional[Iterable[TraceEvent]] = None,
        header: Optional[TraceHeader] = None,
    ) -> None:
        self.header = header
        self.events: list[TraceEvent] = []
        self._next_seq: dict[int, int] = {}
        if events is not None:
            self.extend(events)

    # ------------------------------------------------------------ recording
    def record(
        self,
        kind: str,
        rank: int,
        time: float,
        peer: Optional[int] = None,
        family: Optional[str] = None,
        iteration: Optional[int] = None,
        args: Tuple[int, ...] = (),
    ) -> TraceEvent:
        """Append one event, assigning the rank's next sequence number.

        An unknown kind, or a wrong number of args for it, is refused
        (the recorders pass ints; :meth:`extend`, which loaded logs go
        through, also checks each is one).
        """
        if len(args) not in EVENT_KINDS.get(kind, ()):
            check_args(kind, args)
        seq = self._next_seq.get(rank, 0)
        event = TraceEvent(
            rank, seq, kind, float(time), peer, family, iteration, args)
        self._next_seq[rank] = seq + 1
        self.events.append(event)
        return event

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Merge pre-sequenced events (e.g. from a worker process).

        Refuses an event whose args do not fit its kind
        (:func:`check_args`).
        """
        for ev in events:
            check_args(ev.kind, ev.args)
            self.events.append(ev)
            nxt = self._next_seq.get(ev.rank, 0)
            self._next_seq[ev.rank] = max(nxt, ev.seq + 1)

    # ------------------------------------------------------------- queries
    def ranks(self) -> list[int]:
        """Sorted ranks present in the log."""
        return sorted({ev.rank for ev in self.events})

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(sorted(self.events))

    def __repr__(self) -> str:
        return f"<EventLog events={len(self.events)} ranks={self.ranks()}>"

    # ----------------------------------------------------------- JSONL I/O
    def save(self, path: str | Path) -> None:
        """Write the log as JSON-lines: the header, then one event per line."""
        if self.header is None:
            raise ValueError("an EventLog needs a header to be saved")
        with open(path, "w", encoding="utf-8") as fh:
            header = {"format": FORMAT, **asdict(self.header)}
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for ev in sorted(self.events):
                fh.write(json.dumps(ev.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "EventLog":
        """Read a JSON-lines log written by :meth:`save`; a file whose
        first line is not a format-2 header, or with a record whose args
        do not fit its kind, is refused."""
        with open(path, "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        head = lines[0] if lines and isinstance(lines[0], dict) else {}
        if head.pop("format", None) != FORMAT:
            raise ValueError(f"no format-{FORMAT} header on the first line")
        return cls(map(TraceEvent.from_dict, lines[1:]), header=TraceHeader(**head))
