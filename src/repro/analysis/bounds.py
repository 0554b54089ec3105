"""The occupancy contracts: a recorded trace judges the protocol's bounds.

Every buffer the protocol grows is bounded by a parameter of the run,
not by its length: FW caps run-ahead, and p multiplies the per-peer
bounds.  For each contract we compute the observed maximum from a
recorded :class:`~repro.trace.events.EventLog` and evaluate the
matching row of :data:`OCCUPANCY_BOUNDS` at the ``(p, max_fw,
iterations)`` of the trace's own header:

* **inbox** (per rank) — undelivered messages per source channel
  (sends observed minus recvs, per tag family so barrier traffic does
  not pollute the data channel), checked against the engine's
  run-ahead bound ``2 * max(fw, 1)``;
* **in-flight** (per rank) — a rank's outstanding sends across all
  peers, checked against ``(p - 1) * 2 * max(fw, 1)``;
* **cascade** (run) — longest consecutive run of ``correct`` events on
  any rank, checked against ``max(fw, 1)``;
* **events** (run) — total trace size, checked against the linear
  envelope ``p * iters * (...)``.

The history rings have no contract here: a ring cannot outgrow its
capacity (:class:`~repro.engine.ring.HistoryRing` raises), and the
runtime sanitizer checks each ring's real occupancy as it fills.
A verdict is **CONFIRMED** (observed within the bound), **REFUTED**
(the run outgrew the bound — a protocol-window or transport bug), or
**UNOBSERVED** (the trace has no events of that metric).
``repro analyze --trace`` prints them after the protocol verdicts
(:func:`repro.analysis.replay.judge`), and a REFUTED one fails the run.

Determinism: the DES is seeded, so a recorded trace — and every
verdict — is byte-reproducible.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.analysis.trace_view import (
    CONFIRMED,
    REFUTED,
    UNOBSERVED,
    TraceView,
    Verdict,
)
from repro.engine.core import run_ahead_bound

#: metric name -> (the bound as printed, the bound at (p, fw, iters)),
#: where fw is the window's ceiling (the header's ``max_fw``).
OCCUPANCY_BOUNDS: dict[str, tuple[str, Callable[[int, int, int], int]]] = {
    # The engine's run-ahead bound (derived at its definition): a
    # channel's undelivered messages reach at most that far past the
    # receiver's verified horizon.
    "inbox": ("2 * max(fw, 1)", lambda p, fw, iters: run_ahead_bound(fw)),
    # The inbox bound on each of the p - 1 peers a rank broadcasts to.
    "in-flight": (
        "(p - 1) * 2 * max(fw, 1)",
        lambda p, fw, iters: (p - 1) * run_ahead_bound(fw),
    ),
    # The window gate pins the frontier at most FW past the rejected
    # iteration (one repair for the degenerate FW = 0).
    "cascade": ("max(fw, 1)", lambda p, fw, iters: max(fw, 1)),
    # A generous linear envelope, not tight: per rank-iteration a
    # bounded alphabet of events, plus per-peer traffic a cascade can
    # multiply by at most the window.
    "events": (
        "p * iters * (6 + (p - 1) * (2 * fw + 6))",
        lambda p, fw, iters: p * iters * (6 + (p - 1) * (2 * fw + 6)),
    ),
}


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


def check_occupancy(view: TraceView) -> list[Verdict]:
    """Judge every occupancy bound against the trace, at its header's
    ``(p, max_fw, iterations)``."""
    header = view.required_header()

    def verdict(metric: str, scope: str, observed: Optional[int]) -> Verdict:
        text, formula = OCCUPANCY_BOUNDS[metric]
        bound = formula(header.p, header.max_fw, header.iterations)
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

    depths = observed_inbox_depths(view)
    inflight = observed_inflight_sends(view)
    claims: list[tuple[str, str, Optional[int]]] = [
        ("cascade", "run", observed_cascade_depth(view)),
        ("events", "run", len(view.events) or None),
    ]
    for rank in view.by_rank:
        claims.append(("inbox", f"rank {rank}", depths.get(rank)))
        claims.append(("in-flight", f"rank {rank}", inflight.get(rank)))
    # By metric, then scope as text ("rank 10" before "rank 2"): the
    # order the report has always had.
    return [verdict(*claim) for claim in sorted(claims, key=lambda c: c[:2])]


def judge(view: TraceView) -> tuple[list[str], list[Verdict], int]:
    """The occupancy report: a header line, then one line per verdict.
    A REFUTED bound fails the run."""
    occupancy = check_occupancy(view)
    run = view.required_header()
    report = [
        f"occupancy contracts: {len(view.events)} event(s), "
        f"{len(occupancy)} contract(s) checked at (p={run.p}, "
        f"max_fw={run.max_fw}, iterations={run.iterations})",
        *(v.format_text() for v in occupancy),
    ]
    return report, occupancy, sum(v.status == REFUTED for v in occupancy)
