"""specbound's two contract sets: a recorded trace judges the claims.

A static bound or cost finding is a *claim* about run time, and a
recorded :class:`~repro.trace.events.EventLog` is evidence for or
against it.  ``repro bounds --trace`` reports the occupancy contracts
first, then the phase-cost contracts.

**Occupancy.**  Every buffer the protocol grows is bounded by a
parameter of the run, not by its length: FW caps run-ahead, and p
multiplies the per-peer bounds.  For each contract we compute the
observed maximum from the trace and evaluate the matching row of
:data:`OCCUPANCY_BOUNDS` at the ``(p, max_fw, iterations)`` of the
trace's own header:

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
An occupancy verdict is **CONFIRMED** (observed within the bound),
**REFUTED** (the run outgrew the bound — a protocol-window or
transport bug), or **UNOBSERVED** (the trace has no events of that
metric).

**Cost.**  The budget is the calibrated performance model (Eq. 3-9,
:mod:`repro.perfmodel.model`) at the trace header's ``p``: on the
bottleneck processor one speculative iteration decomposes into

    max(spec + compute, comm) + check + k * recompute

which fixes the *share* of iteration time each phase may consume.
:func:`measure_phase_shares` extracts the same shares from a trace by
attributing inter-event gaps on each rank (time before a ``recv`` is
communication wait; time after a ``compute``/``speculate``/``verify``/
``correct`` event belongs to that phase).  An SPP finding's phase
(:data:`PHASE_OF_RULE`) is then **CONFIRMED** (the phase consumed more
of the iteration than the model budgets, beyond :data:`TOL`: the
flagged overhead plausibly cost time), **REFUTED** (it stayed within
its budget) or **UNOBSERVED** (the trace has no events of that phase).

Determinism: the DES is seeded, so a recorded trace — and every
verdict — is byte-reproducible.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.trace_view import (
    CONFIRMED,
    REFUTED,
    UNOBSERVED,
    TraceView,
    Verdict,
)
from repro.engine.core import run_ahead_bound
from repro.perfmodel.model import ModelParams, PerformanceModel, section4_params
from repro.trace.phases import PHASES

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


#: Share drift a phase may show over its model budget before a finding
#: on it is CONFIRMED.
TOL = 0.05

#: The measured phase an SPP rule's cost pattern inflates when real.
PHASE_OF_RULE: dict[str, str] = {
    "SPP204": "check",  # ring scan per verified message
}

#: Gap attribution: the phase that owns time *after* an event kind.
_AFTER_KIND = {
    "compute": "compute",
    "speculate": "spec",
    "verify": "check",
    "correct": "correct",
    "send": "comm",
}

#: Event kinds whose presence makes a phase observable in a trace.
_KINDS_OF_PHASE = {
    "compute": ("compute",),
    "spec": ("speculate",),
    "check": ("verify",),
    "correct": ("correct",),
    "comm": ("send", "recv"),
}


def measure_phase_shares(view: TraceView) -> dict[str, float]:
    """Fraction of traced time each phase consumed, summed over ranks.

    Works on inter-event gaps per rank: the interval ending at a
    ``recv`` is communication wait (the rank was blocked on the
    message); otherwise the interval belongs to the phase of the event
    that *started* it (:data:`_AFTER_KIND`), defaulting to ``idle``.
    """
    totals = {phase: 0.0 for phase in PHASES}
    for events in view.by_rank.values():
        for prev, cur in zip(events, events[1:]):
            gap = cur.time - prev.time
            if gap <= 0.0:
                continue
            if cur.kind == "recv":
                phase = "comm"
            else:
                phase = _AFTER_KIND.get(prev.kind, "idle")
            totals[phase] += gap
    grand = sum(totals.values())
    if grand <= 0.0:
        return {phase: 0.0 for phase in PHASES}
    return {phase: t / grand for phase, t in totals.items()}


def observed_phases(view: TraceView) -> frozenset[str]:
    """Phases the trace actually exercised (has events of)."""
    return frozenset(
        phase
        for phase, needed in _KINDS_OF_PHASE.items()
        if any(view.kind_counts[kind] for kind in needed)
    )


def budget_procs(p: int, params: ModelParams) -> int:
    """The p the phase budget is evaluated at: the model covers
    1..``params.max_procs``."""
    return max(1, min(p, params.max_procs))


def model_phase_shares(
    p: int, params: Optional[ModelParams] = None
) -> dict[str, float]:
    """The Eq. 8 phase budget on the bottleneck rank, as shares.

    Decomposes the bottleneck processor's iteration time into the five
    protocol components (communication is the *exposed* wait — the part
    speculation + computation fail to overlap) and normalises, at
    :func:`budget_procs`.
    """
    params = params if params is not None else section4_params()
    p = budget_procs(p, params)
    shares = {phase: 0.0 for phase in PHASES}
    if p == 1:
        shares["compute"] = 1.0
        return shares
    model = PerformanceModel(params)
    bottleneck = max(range(p), key=lambda i: model.t_spec_rank(p, i))
    spec_t, comp_t, check_t, correct_t = model.spec_terms(p, bottleneck)
    comm_t = max(0.0, params.t_comm(p) - (spec_t + comp_t))
    total = spec_t + comp_t + comm_t + check_t + correct_t
    if total <= 0.0:  # pragma: no cover - degenerate parameters
        return shares
    shares["compute"] = comp_t / total
    shares["comm"] = comm_t / total
    shares["spec"] = spec_t / total
    shares["check"] = check_t / total
    shares["correct"] = correct_t / total
    return shares


def check_contracts(
    diagnostics: Sequence[Diagnostic], view: TraceView
) -> tuple[dict[str, float], dict[str, float], list[Verdict]]:
    """Judge every distinct SPP finding code against the trace.

    Returns ``(measured shares, model shares, verdicts)``; the model
    runs at the header's ``p``.
    """
    measured = measure_phase_shares(view)
    observed = observed_phases(view)
    modeled = model_phase_shares(view.required_header().p)
    verdicts: list[Verdict] = []
    for code in sorted({d.code for d in diagnostics}):
        phase = PHASE_OF_RULE.get(code)
        if phase is None:
            continue
        excess = measured[phase] - modeled[phase]
        if phase not in observed:
            status = UNOBSERVED
        elif excess > TOL:
            status = CONFIRMED
        else:
            status = REFUTED
        verdicts.append(
            Verdict(
                "cost-contract", code, f"[{phase}]", status,
                measured[phase], modeled[phase],
                f"measured {measured[phase]:.1%} vs model "
                f"{modeled[phase]:.1%} share ({excess * 100.0:+.1f}pp)",
            )
        )
    return measured, modeled, verdicts


def format_share_table(
    measured: dict[str, float], modeled: dict[str, float], p: int
) -> str:
    """Side-by-side measured vs model phase shares (text report).

    The header names the p the model ran at when the trace's ``p`` is
    past what the model covers.
    """
    evaluated = budget_procs(p, section4_params())
    lines = ["phase      measured    model"]
    if evaluated != p:
        lines[0] += f" at p={evaluated} (trace p={p})"
    for phase in PHASES:
        lines.append(
            f"{phase:<9s}  {measured.get(phase, 0.0):>7.1%}  {modeled.get(phase, 0.0):>7.1%}"
        )
    return "\n".join(lines)


def judge(
    view: TraceView, diagnostics: Sequence[Diagnostic]
) -> tuple[list[str], list[Verdict], int]:
    """specbound's ``--trace`` hook: the occupancy report, then the cost
    report.  A REFUTED bound or a CONFIRMED cost overrun fails the run."""
    occupancy = check_occupancy(view)
    run = view.required_header()
    measured, modeled, costs = check_contracts(diagnostics, view)
    report = [
        f"occupancy contracts: {len(view.events)} event(s), "
        f"{len(occupancy)} contract(s) checked at (p={run.p}, "
        f"max_fw={run.max_fw}, iterations={run.iterations})",
        *(v.format_text() for v in occupancy),
        format_share_table(measured, modeled, run.p),
    ]
    if not costs:
        report.append("cost contracts: no static SPP findings to cross-reference")
    report += [v.format_text() for v in costs]
    failing = sum(v.status == REFUTED for v in occupancy)
    failing += sum(v.status == CONFIRMED for v in costs)
    return report, [*occupancy, *costs], failing
