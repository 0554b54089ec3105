"""Trace replay: check a recorded run rank by rank, then across ranks.

**Per rank, the live sanitizer offline.** Each rank's records of an
:class:`~repro.trace.events.EventLog` (simulator, loopback, pipes or
specmc's ``--emit-trace``), in program order, go through a
:class:`~repro.engine.observer.RankObserver` seated on a
:class:`~repro.engine.sanitizer.ProtocolSanitizer`:
:data:`~repro.engine.observer.REPLAYED` makes the observer call each
record was made by again, so a finding carries the invariant id the
live seat raises (:mod:`repro.engine.invariants`).  The live calls
outside that table are made the same way: a ``recv`` carrying its wire
seq goes to ``on_delivery`` (loopback and pipes stamp it; the DES
networks are FIFO by construction and never check it); a
``retransmit`` opens its seq's gap, which heals once that seq has
reached the rank -- by a ``recv`` of it, or the fault seam's ``fault``
record for it (the seam re-delivers from its own buffer) -- as the
engine's ``gap_healed`` call does live; and a cascade ends at the first
record that is not one of its steps.  A rank stops at its first
violation, as the live seat raises at its first; the run-end checks
run only when no rank violated.

**Across ranks, the happens-before graph.** Per-rank program order
plus one edge per matched message
(:func:`~repro.analysis.trace_view.match_messages`) make the shared
:class:`~repro.analysis.races.HappensBeforeGraph`, over which run the
dynamic mirrors of the two SPF rules (same codes, so a static finding
and its runtime witness line up): **SPF110**, a send never received or
a receive never fed, and **SPF111**, two same-family sends on one
channel received in the opposite order.  The receiving rank stops at
an SPF111 arrival: live, its history ring raised there
(``history-ring-bound``).

:func:`cross_reference` marks each static SPF code CONFIRMED (the trace
exhibits it), REFUTED (the trace exercised it and stayed clean) or
UNOBSERVED -- the ``protocol-contract`` verdicts ``repro analyze
--trace`` prints through :func:`judge`, before the occupancy verdicts
of :mod:`repro.analysis.bounds`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.analysis import bounds
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.races import HappensBeforeGraph
from repro.analysis.trace_view import (
    CONFIRMED,
    REFUTED,
    UNOBSERVED,
    TraceView,
    Verdict,
)
from repro.engine.sanitizer import ProtocolSanitizer, ProtocolViolation
from repro.trace.events import TraceEvent

#: The rank (and seq) of a run-end finding, which judges the whole run.
RUN_END = -1


@dataclass(frozen=True, order=True)
class ReplayFinding:
    """One protocol violation witnessed in a recorded trace."""

    code: str          # SPF110 / SPF111, or the sanitizer's invariant id
    rank: int          # RUN_END for a run-end finding
    seq: int
    message: str

    def format_text(self) -> str:
        where = (
            "run end" if self.rank == RUN_END
            else f"rank {self.rank} seq {self.seq}"
        )
        return f"trace {where}: {self.code} {self.message}"


@dataclass
class ReplayReport:
    """Everything the trace replay learned from one event log."""

    graph: HappensBeforeGraph
    findings: list[ReplayFinding] = field(default_factory=list)
    matched_messages: int = 0
    unmatched_sends: int = 0
    unmatched_recvs: int = 0
    stats: dict[str, int] = field(default_factory=dict)


def event_key(ev: TraceEvent) -> tuple[int, int]:
    """Graph-node identity of one event: ``(rank, seq)``."""
    return (ev.rank, ev.seq)


def build_dynamic_hb(
    view: TraceView,
) -> tuple[HappensBeforeGraph, ReplayReport]:
    """The dynamic HB graph of one recorded run (plus match stats)."""
    graph = HappensBeforeGraph()
    for events in view.by_rank.values():
        for ev in events:
            graph.add_node(event_key(ev))
        for prev, nxt in zip(events, events[1:]):
            graph.add_edge(event_key(prev), event_key(nxt))
    pairs, unmatched_sends, unmatched_recvs = view.matching
    for send, recv in pairs:
        graph.add_edge(event_key(send), event_key(recv))
    report = ReplayReport(
        graph=graph,
        matched_messages=len(pairs),
        unmatched_sends=len(unmatched_sends),
        unmatched_recvs=len(unmatched_recvs),
    )
    return graph, report


# --------------------------------------------------------------------------
# per rank: the sanitizer over each rank's records
# --------------------------------------------------------------------------


def _sanitize_rank(
    san: ProtocolSanitizer, events: list[TraceEvent], stop: Optional[int],
) -> Optional[ReplayFinding]:
    """Feed one rank's records (up to seq ``stop``) to ``san``, through
    an observer seat making each record's calls again; the finding for
    the first that violates, else None."""
    # Not at module level: importing repro.analysis must not load the
    # engine package (which imports repro.analysis) part-way through.
    from repro.engine.observer import REPLAYED, RankObserver

    observer = RankObserver(events[0].rank, sanitizer=san)
    arrived: set[tuple[Optional[int], int]] = set()  # (src, wire seq)
    asked: dict[Optional[int], int] = {}  # src -> seq of its open gap
    in_cascade = False
    for ev in events:
        if stop is not None and ev.seq > stop:
            break
        kind = ev.kind
        try:
            correct = kind == "correct"
            if in_cascade and not (correct and ev.iteration != ev.args[0]):
                observer.cascade_end()
            in_cascade = correct
            replay = REPLAYED.get(kind)
            if replay is not None:
                replay(observer, ev)
            if kind == "retransmit":
                asked[ev.peer] = ev.iteration
            elif ev.args and kind in ("recv", "fault"):
                if kind == "recv":
                    san.on_delivery(ev.rank, ev.peer, ev.args[0])
                arrived.add((ev.peer, ev.args[0]))
            else:
                continue
            if (ev.peer, asked.get(ev.peer)) in arrived:
                observer.gap_healed(ev.peer, asked.pop(ev.peer))
        except ProtocolViolation as exc:
            return ReplayFinding(exc.invariant, ev.rank, ev.seq, exc.details)
    return None


def _sanitize(
    view: TraceView, overtaken: Sequence[ReplayFinding] = (),
) -> list[ReplayFinding]:
    """The sanitizer over each rank's records, each stopping at its
    first ``overtaken`` (SPF111) arrival, then over the run's end when
    no rank violated."""
    stops = {f.rank: f.seq for f in sorted(overtaken, reverse=True)}
    san = ProtocolSanitizer()
    findings = []
    for events in view.by_rank.values():
        finding = _sanitize_rank(san, events, stops.get(events[0].rank))
        if finding is not None:
            findings.append(finding)
    if not findings and not stops:
        try:
            san.on_run_end()
        except ProtocolViolation as exc:
            findings.append(
                ReplayFinding(exc.invariant, RUN_END, RUN_END, exc.details))
    return findings


# --------------------------------------------------------------------------
# across ranks: the dynamic rule mirrors
# --------------------------------------------------------------------------


def _check_unmatched_messages(view: TraceView) -> Iterator[ReplayFinding]:
    """SPF110 mirror: sends never consumed / receives never fed."""
    _pairs, unmatched_sends, unmatched_recvs = view.matching
    for ev in unmatched_sends:
        yield ReplayFinding(
            "SPF110", ev.rank, ev.seq,
            f"send to rank {ev.peer} (family {ev.family!r}, iteration "
            f"{ev.iteration}) was never received; the message leaked",
        )
    for ev in unmatched_recvs:
        yield ReplayFinding(
            "SPF110", ev.rank, ev.seq,
            f"receive from rank {ev.peer} (family {ev.family!r}, "
            f"iteration {ev.iteration}) matches no recorded send",
        )


def _check_message_overtaking(view: TraceView) -> Iterator[ReplayFinding]:
    """SPF111 mirror: same-channel messages received out of send order."""
    pairs, _, _ = view.matching
    by_channel: dict[
        tuple[int, int, Optional[str]], list[tuple[TraceEvent, TraceEvent]]
    ] = {}
    for send, recv in pairs:
        channel = (send.rank, recv.rank, send.family)
        by_channel.setdefault(channel, []).append((send, recv))
    for channel, channel_pairs in sorted(
        by_channel.items(), key=lambda item: (item[0][0], item[0][1])
    ):
        channel_pairs.sort(key=lambda pair: pair[0].seq)
        for (send_a, recv_a), (send_b, recv_b) in zip(
            channel_pairs, channel_pairs[1:]
        ):
            if recv_b.seq < recv_a.seq:
                yield ReplayFinding(
                    "SPF111", recv_b.rank, recv_b.seq,
                    f"message (family {send_b.family!r}, iteration "
                    f"{send_b.iteration}) from rank {send_b.rank} "
                    f"overtook the earlier send for iteration "
                    f"{send_a.iteration}; receives observed delivery "
                    "order, not send order",
                )


def replay(view: TraceView) -> ReplayReport:
    """Run every dynamic check over ``view`` and collect the findings."""
    graph, report = build_dynamic_hb(view)
    overtaken = list(_check_message_overtaking(view))
    report.findings = sorted(
        [*_check_unmatched_messages(view), *overtaken,
         *_sanitize(view, overtaken)])
    report.stats = {
        "events": len(view.events),
        "ranks": len(view.by_rank),
        "hb_edges": graph.edge_count(),
        "matched_messages": report.matched_messages,
        "speculations": view.kind_counts["speculate"],
        "verifications": view.kind_counts["verify"],
        "corrections": view.kind_counts["correct"],
    }
    return report


# --------------------------------------------------------------------------
# differential analysis: static findings vs the recorded run
# --------------------------------------------------------------------------

#: What a trace must contain for a code's behaviour to count as
#: *exercised* (so a clean trace refutes rather than merely not
#: observing the static finding).
_EXERCISE_KINDS: dict[str, tuple[str, ...]] = {
    "SPF111": ("send",),
}


def cross_reference(
    diagnostics: Sequence[Diagnostic], view: TraceView
) -> tuple[ReplayReport, list[Verdict]]:
    """Join static findings with a recorded run: for every distinct SPF
    code among ``diagnostics``, CONFIRMED (the replay witnessed the same
    violation class), REFUTED (the trace exercised the relevant protocol
    steps and stayed clean) or UNOBSERVED (it never exercised them)."""
    report = replay(view)
    verdicts: list[Verdict] = []
    for code in sorted({d.code for d in diagnostics if d.code.startswith("SPF1")}):
        static_count = sum(1 for d in diagnostics if d.code == code)
        hits = [f for f in report.findings if f.code == code]
        exercise = _EXERCISE_KINDS.get(code, ())
        if hits:
            status = CONFIRMED
            detail = (
                f"{static_count} static finding(s); the trace "
                f"witnesses {len(hits)} runtime violation(s), e.g. "
                f"rank {hits[0].rank} seq {hits[0].seq}"
            )
        elif exercise and all(view.kind_counts[kind] for kind in exercise):
            status = REFUTED
            detail = (
                f"{static_count} static finding(s), but the trace "
                f"exercised {'/'.join(exercise)} events "
                f"({', '.join(str(view.kind_counts[k]) for k in exercise)}"
                ") without violating the rule on this input"
            )
        else:
            status = UNOBSERVED
            detail = (
                f"{static_count} static finding(s); the trace never "
                f"exercised the relevant protocol steps "
                f"({'/'.join(exercise) or 'n/a'})"
            )
        verdicts.append(
            Verdict("protocol-contract", code, "", status, None, None, detail)
        )
    return report, verdicts


def judge(
    view: TraceView, diagnostics: Sequence[Diagnostic]
) -> tuple[list[str], list[Verdict], int]:
    """specflow's ``--trace`` hook: the protocol report, then the
    occupancy report (:func:`repro.analysis.bounds.judge`).  Every
    replay finding and every REFUTED bound fails the run."""
    report, verdicts = cross_reference(diagnostics, view)
    stats = ", ".join(f"{k}={v}" for k, v in sorted(report.stats.items()))
    lines = [f"trace replay: {stats}"]
    lines += [finding.format_text() for finding in report.findings]
    if not verdicts:
        lines.append("trace replay: no static SPF findings to cross-reference")
    lines += [v.format_text() for v in verdicts]
    occupancy_lines, occupancy, refuted = bounds.judge(view)
    return (
        lines + occupancy_lines,
        verdicts + occupancy,
        len(report.findings) + refuted,
    )
