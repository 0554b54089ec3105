"""Occupancy contracts: the protocol's resource bounds vs a recorded trace.

The differential half of specbound, in the specperf cost-contract
mold: a bound is a *claim* about run-time occupancy, and a recorded
:class:`~repro.trace.events.EventLog` is evidence for or against it.
Every buffer the protocol grows is bounded by a parameter of the run,
not by its length: BW caps history, FW caps run-ahead, and p
multiplies the per-peer bounds.  For each contract we compute the
observed maximum from the trace and evaluate the matching row of
:data:`OCCUPANCY_BOUNDS` at the run's ``(p, fw, bw, iters)``:

* **history-ring** (per rank) — entries the rank's per-source history
  must retain: the gap between its most-advanced channel and the
  verified horizon (the oldest iteration a cascade may still re-read),
  checked against the engine's ring capacity ``max(bw, 2) + 2``;
* **inbox** (per rank) — undelivered messages per source channel
  (sends observed minus recvs, per tag family so barrier traffic does
  not pollute the data channel), checked against ``fw + 1``;
* **in-flight** (per rank) — a rank's outstanding sends across all
  peers, checked against ``(p - 1) * (fw + 1)``;
* **cascade** (run) — longest consecutive run of ``correct`` events on
  any rank, checked against ``max(fw, 1)``;
* **events** (run) — total trace size, checked against the linear
  envelope ``p * iters * (...)``.

Verdicts are **CONFIRMED** (observed within the bound), **REFUTED**
(the run outgrew the bound — a protocol-window or transport bug), or
**UNOBSERVED** (the trace has no events of that metric).  Determinism:
the DES is seeded, so a recorded trace — and every verdict — is
byte-reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.trace_view import (
    CONFIRMED,
    REFUTED,
    UNOBSERVED,
    TraceView,
    Verdict,
)

if TYPE_CHECKING:
    import argparse

#: metric name -> (the bound as printed, the bound at (p, fw, bw, iters)).
OCCUPANCY_BOUNDS: dict[str, tuple[str, Callable[[int, int, int, int], int]]] = {
    # The engine's ``default_hist_cap``: the speculator reads the newest
    # BW entries (at least 2, so linear extrapolation has a slope), and
    # a correction may re-read one entry below the verified horizon, so
    # two slots cover the entry being replaced and its predecessor.
    "history-ring": ("max(bw, 2) + 2", lambda p, fw, bw, iters: max(bw, 2) + 2),
    # The pre-send gate keeps a sender within FW iterations of what it
    # has verified and delivery is FIFO per channel, so at most the FW
    # speculated-past iterations plus the one being confirmed wait.
    "inbox": ("fw + 1", lambda p, fw, bw, iters: fw + 1),
    # The inbox bound on each of the p - 1 peers a rank broadcasts to.
    "in-flight": (
        "(p - 1) * (fw + 1)", lambda p, fw, bw, iters: (p - 1) * (fw + 1)
    ),
    # The window gate pins the frontier at most FW past the rejected
    # iteration (one repair for the degenerate FW = 0).
    "cascade": ("max(fw, 1)", lambda p, fw, bw, iters: max(fw, 1)),
    # A generous linear envelope, not tight: per rank-iteration a
    # bounded alphabet of events, plus per-peer traffic a cascade can
    # multiply by at most the window.
    "events": (
        "p * iters * (6 + (p - 1) * (2 * fw + 6))",
        lambda p, fw, bw, iters: p * iters * (6 + (p - 1) * (2 * fw + 6)),
    ),
}


def observed_ring_spans(view: TraceView) -> dict[int, int]:
    """Per rank: the widest history span its rings had to retain.

    Tracks the newest iteration received per channel; the rank's
    verified horizon is the slowest channel's newest iteration, and a
    cascade may re-read one entry below it, so the fast channel's ring
    must span ``newest - horizon + 2`` entries (the initial condition
    counts as iteration 0).
    """
    newest: dict[int, dict[int, int]] = {}
    spans: dict[int, int] = {}
    for ev in view.time_ordered:
        if ev.kind != "recv" or ev.peer is None or ev.iteration is None:
            continue
        chans = newest.setdefault(ev.rank, {})
        chans[ev.peer] = max(chans.get(ev.peer, 0), ev.iteration)
        span = max(chans.values()) - min(chans.values()) + 2
        spans[ev.rank] = max(spans.get(ev.rank, 0), span)
    return spans


def observed_inbox_depths(view: TraceView) -> dict[int, int]:
    """Per rank: the deepest any single (source, family) channel got.

    Outstanding = sends addressed to the rank minus its recvs, counted
    per source *and* per tag family so one barrier message does not
    inflate the data channel's depth.
    """
    outstanding: dict[tuple[int, int, Optional[str]], int] = {}
    depths: dict[int, int] = {}
    for ev in view.time_ordered:
        if ev.peer is None:
            continue
        if ev.kind == "send":
            chan = (ev.peer, ev.rank, ev.family)
        elif ev.kind == "recv":
            chan = (ev.rank, ev.peer, ev.family)
        else:
            continue
        delta = 1 if ev.kind == "send" else -1
        outstanding[chan] = max(0, outstanding.get(chan, 0) + delta)
        depths[chan[0]] = max(depths.get(chan[0], 0), outstanding[chan])
    return depths


def observed_inflight_sends(view: TraceView) -> dict[int, int]:
    """Per rank: its maximum outstanding sends, summed over peers.

    Like :func:`observed_inbox_depths` but attributed to the *sender*:
    within one tag family, how many of the rank's messages were in the
    pipe (or parked in a peer inbox) at once.  Each (sender, family)
    total moves by its channel's clamped delta: O(1) per event.
    """
    outstanding: dict[tuple[int, Optional[str], int], int] = {}
    totals: dict[tuple[int, Optional[str]], int] = {}
    peak: dict[int, int] = {}
    for ev in view.time_ordered:
        if ev.peer is None:
            continue
        if ev.kind == "send":
            src, dst = ev.rank, ev.peer
        elif ev.kind == "recv":
            src, dst = ev.peer, ev.rank
        else:
            continue
        delta = 1 if ev.kind == "send" else -1
        chan = (src, ev.family, dst)
        before = outstanding.get(chan, 0)
        outstanding[chan] = max(0, before + delta)
        key = (src, ev.family)
        totals[key] = totals.get(key, 0) + outstanding[chan] - before
        peak[src] = max(peak.get(src, 0), totals[key])
    return peak


def observed_cascade_depth(view: TraceView) -> Optional[int]:
    """Longest consecutive run of ``correct`` events on any rank.

    The engine emits one ``correct`` per repaired iteration and a
    cascade repairs consecutive iterations back-to-back, so the run
    length in per-rank program order is the cascade depth.  ``None``
    when the trace contains no corrections.
    """
    best: Optional[int] = None
    for events in view.by_rank.values():
        run = 0
        for ev in events:
            if ev.kind == "correct":
                run += 1
                best = run if best is None else max(best, run)
            else:
                run = 0
    return best


def inferred_iterations(view: TraceView) -> Optional[int]:
    """Iteration count implied by the trace (max tagged iteration + 1)."""
    tagged = [ev.iteration for ev in view.events if ev.iteration is not None]
    if not tagged:
        return None
    return max(tagged) + 1


def check_occupancy(
    view: TraceView,
    p: Optional[int] = None,
    fw: int = 1,
    bw: int = 2,
    iters: Optional[int] = None,
) -> list[Verdict]:
    """Judge every occupancy bound against the trace.

    ``p`` defaults to the number of ranks in the trace and ``iters``
    to the largest tagged iteration; ``fw``/``bw`` must come from the
    run's configuration (they are not recorded per event).
    """
    p_eff = p if p is not None else max(1, len(view.by_rank))
    iters_eff = iters if iters is not None else inferred_iterations(view)

    def verdict(metric: str, scope: str, observed: Optional[int]) -> Verdict:
        text, formula = OCCUPANCY_BOUNDS[metric]
        bound = formula(p_eff, fw, bw, iters_eff or 0)
        if observed is None:
            status = UNOBSERVED
            observed = 0
        elif observed <= bound:
            status = CONFIRMED
        else:
            status = REFUTED
        return Verdict(
            "occupancy-contract", metric, f"[{scope}]", status, observed, bound,
            f"observed {observed} vs bound {bound} = {text}",
        )

    spans = observed_ring_spans(view)
    depths = observed_inbox_depths(view)
    inflight = observed_inflight_sends(view)
    claims: list[tuple[str, str, Optional[int]]] = [
        ("cascade", "run", observed_cascade_depth(view)),
        ("events", "run", len(view.events) if iters_eff is not None else None),
    ]
    for rank in view.by_rank:
        claims.append(("history-ring", f"rank {rank}", spans.get(rank)))
        claims.append(("inbox", f"rank {rank}", depths.get(rank)))
        claims.append(("in-flight", f"rank {rank}", inflight.get(rank)))
    # By metric, then scope as text ("rank 10" before "rank 2"): the
    # order the report has always had.
    return [verdict(*claim) for claim in sorted(claims, key=lambda c: c[:2])]


def judge(
    view: TraceView, diagnostics: Sequence[Diagnostic], args: argparse.Namespace
) -> tuple[list[str], list[Verdict], int]:
    """specbound's ``--trace`` hook: a REFUTED bound fails the run (the
    contracts are about the run, so the static findings are not read)."""
    verdicts = check_occupancy(
        view, p=args.model_p, fw=args.model_fw, bw=args.model_bw
    )
    header = [
        f"occupancy contracts: {len(view.events)} event(s), "
        f"{len(verdicts)} contract(s) checked at "
        f"(fw={args.model_fw}, bw={args.model_bw})"
    ]
    return header, verdicts, sum(v.status == REFUTED for v in verdicts)
