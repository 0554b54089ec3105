"""Trace replay: check recorded runs against the protocol HB model.

The static half of specflow (:mod:`repro.analysis.races`) reasons
about *source sites*; this module applies the same happens-before
discipline to a *recorded execution* — an :class:`~repro.trace.events.EventLog` produced by the
simulator or the multiprocessing backend.  Each event becomes a node
in the shared :class:`~repro.analysis.races.HappensBeforeGraph`:

* per-rank program order: ``(rank, seq)`` → ``(rank, seq + 1)``;
* message order: each send is matched to the receive that consumed it
  (:func:`repro.analysis.trace_view.match_messages`, run once per
  :class:`~repro.analysis.trace_view.TraceView`) and contributes a
  cross-rank edge.

On top of the dynamic graph the replay runs the *dynamic mirrors* of
the two SPF rules (same codes, so a static finding and its runtime
witness line up):

* **SPF110** — sends never received / receives never fed by a send;
* **SPF111** — message overtaking: two same-family sends from one
  rank to one peer received in the opposite order;

and three per-rank lifecycle checks that have no static rule (their
properties are the runtime invariants ``eventual-verification``,
``history-ring-bound`` and ``cascade-order`` of
:mod:`repro.analysis.invariants`; the codes below only label the
report lines):

* **SPF101** — a speculation never verified before the run ended;
* **SPF102** — a speculation whose source iteration lags the rank's
  compute frontier by more than the history ring holds (the trace
  header's ``hist_cap``);
* **SPF103** — corrections applied in descending iteration order.

Finally :func:`cross_reference` joins a static diagnostic list with a
replay report: every SPF code is marked CONFIRMED (the trace exhibits
the behaviour), REFUTED (the trace exercised the code's behaviour and
stayed clean) or UNOBSERVED (the trace never reached it) — the
``protocol-contract`` verdicts ``repro analyze --trace`` prints through
:func:`judge`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.races import HappensBeforeGraph
from repro.analysis.trace_view import (
    CONFIRMED,
    REFUTED,
    UNOBSERVED,
    TraceView,
    Verdict,
)
from repro.trace.events import TraceEvent


@dataclass(frozen=True, order=True)
class ReplayFinding:
    """One protocol violation witnessed in a recorded trace."""

    code: str          # SPF1xx: a static rule's code or a lifecycle label
    rank: int
    seq: int
    message: str

    def format_text(self) -> str:
        return f"trace rank {self.rank} seq {self.seq}: {self.code} {self.message}"


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


# --------------------------------------------------------------------------
# dynamic happens-before construction
# --------------------------------------------------------------------------


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
# dynamic rule mirrors
# --------------------------------------------------------------------------


def _check_unverified_speculations(view: TraceView) -> Iterator[ReplayFinding]:
    """SPF101: speculate events never followed by verify/correct."""
    for events in view.by_rank.values():
        open_specs: dict[tuple[Optional[int], Optional[int]], TraceEvent] = {}
        for ev in events:
            key = (ev.peer, ev.iteration)
            if ev.kind == "speculate":
                open_specs[key] = ev
            elif ev.kind in ("verify", "correct"):
                open_specs.pop(key, None)
        for ev in sorted(open_specs.values()):
            yield ReplayFinding(
                code="SPF101",
                rank=ev.rank,
                seq=ev.seq,
                message=(
                    f"speculated input from rank {ev.peer} for iteration "
                    f"{ev.iteration} was never verified before the run "
                    "ended; its effects committed unchecked"
                ),
            )


def _check_stale_speculations(view: TraceView) -> Iterator[ReplayFinding]:
    """SPF102: speculation source older than the history ring holds (a
    hand-built log without a header has no ring to judge against)."""
    if view.header is None:
        return
    hist_cap = view.header.hist_cap
    for events in view.by_rank.values():
        frontier: Optional[int] = None  # latest compute iteration seen
        for ev in events:
            if ev.kind == "compute" and ev.iteration is not None:
                if frontier is None or ev.iteration > frontier:
                    frontier = ev.iteration
            elif (
                ev.kind == "speculate"
                and ev.iteration is not None
                and frontier is not None
                and frontier - ev.iteration > hist_cap
            ):
                yield ReplayFinding(
                    code="SPF102",
                    rank=ev.rank,
                    seq=ev.seq,
                    message=(
                        f"speculation for iteration {ev.iteration} ran while "
                        f"the compute frontier was at {frontier} — "
                        f"{frontier - ev.iteration} iterations back, beyond "
                        f"the backward window of {hist_cap}"
                    ),
                )


def _check_correction_order(view: TraceView) -> Iterator[ReplayFinding]:
    """SPF103: a correction cascade applied in descending order."""
    for events in view.by_rank.values():
        prev: Optional[TraceEvent] = None
        for ev in events:
            if ev.kind != "correct":
                prev = None if ev.kind == "verify" else prev
                continue
            if (
                prev is not None
                and prev.iteration is not None
                and ev.iteration is not None
                and ev.iteration < prev.iteration
            ):
                yield ReplayFinding(
                    code="SPF103",
                    rank=ev.rank,
                    seq=ev.seq,
                    message=(
                        f"correction for iteration {ev.iteration} applied "
                        f"after the correction for {prev.iteration}; the "
                        "cascade must repair oldest-first or later repairs "
                        "recompute from unrepaired state"
                    ),
                )
            prev = ev


def _check_unmatched_messages(view: TraceView) -> Iterator[ReplayFinding]:
    """SPF110 mirror: sends never consumed / receives never fed."""
    _pairs, unmatched_sends, unmatched_recvs = view.matching
    for ev in unmatched_sends:
        yield ReplayFinding(
            code="SPF110",
            rank=ev.rank,
            seq=ev.seq,
            message=(
                f"send to rank {ev.peer} (family {ev.family!r}, iteration "
                f"{ev.iteration}) was never received; the message leaked"
            ),
        )
    for ev in unmatched_recvs:
        yield ReplayFinding(
            code="SPF110",
            rank=ev.rank,
            seq=ev.seq,
            message=(
                f"receive from rank {ev.peer} (family {ev.family!r}, "
                f"iteration {ev.iteration}) matches no recorded send"
            ),
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
                    code="SPF111",
                    rank=recv_b.rank,
                    seq=recv_b.seq,
                    message=(
                        f"message (family {send_b.family!r}, iteration "
                        f"{send_b.iteration}) from rank {send_b.rank} "
                        f"overtook the earlier send for iteration "
                        f"{send_a.iteration}; receives observed delivery "
                        "order, not send order"
                    ),
                )


def replay(view: TraceView) -> ReplayReport:
    """Run every dynamic check over ``view`` and collect the findings."""
    graph, report = build_dynamic_hb(view)
    findings: list[ReplayFinding] = []
    findings.extend(_check_unverified_speculations(view))
    findings.extend(_check_stale_speculations(view))
    findings.extend(_check_correction_order(view))
    findings.extend(_check_unmatched_messages(view))
    findings.extend(_check_message_overtaking(view))
    report.findings = sorted(findings)
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
    "SPF110": ("send", "recv"),
    "SPF111": ("send",),
}


def cross_reference(
    diagnostics: Sequence[Diagnostic], view: TraceView
) -> tuple[ReplayReport, list[Verdict]]:
    """Join static findings with a recorded run.

    For every distinct SPF code among ``diagnostics``:

    * CONFIRMED — the replay witnessed the same violation class;
    * REFUTED — the trace exercised the relevant protocol steps and
      stayed clean (evidence the static finding is a false positive,
      or that this input never hits the bad path);
    * UNOBSERVED — the trace never exercised those steps, so it says
      nothing either way.
    """
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
    """specflow's ``--trace`` hook: every replay finding fails the run."""
    report, verdicts = cross_reference(diagnostics, view)
    stats = ", ".join(f"{k}={v}" for k, v in sorted(report.stats.items()))
    header = [f"trace replay: {stats}"]
    header += [finding.format_text() for finding in report.findings]
    if not verdicts:
        header.append("trace replay: no static SPF findings to cross-reference")
    return header, verdicts, len(report.findings)
