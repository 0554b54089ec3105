"""Phase-cost contracts: static findings vs a measured trace.

The differential half of specperf, mirroring what
:mod:`repro.analysis.replay` does for specflow's protocol findings:
a static finding is a *claim* about run-time cost, and a recorded
:class:`~repro.trace.events.EventLog` is evidence for or against it.

The contract is the calibrated performance model (Eq. 3-9,
:mod:`repro.perfmodel.model`) at the trace header's ``p``: on the
bottleneck processor one
speculative iteration decomposes into

    max(spec + compute, comm) + check + k * recompute

which fixes the *share* of iteration time each phase may consume.
:func:`measure_phase_shares` extracts the same shares from a trace by
attributing inter-event gaps on each rank (time before a ``recv`` is
communication wait; time after a ``compute``/``speculate``/``verify``/
``correct`` event belongs to that phase).  A static finding's phase
(:data:`PHASE_OF_RULE`) is then judged:

* **CONFIRMED** — the phase consumed more of the iteration than the
  model budgets (beyond :data:`TOL`): the trace is consistent with the
  flagged overhead actually costing time;
* **REFUTED** — the phase stayed within its budget: the pattern exists
  but did not distort this run's phase economy;
* **UNOBSERVED** — the trace contains no events of that phase, so it
  is silent about the claim.

Determinism: the DES is seeded, so a recorded trace — and therefore
every verdict — is byte-reproducible.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.trace_view import (
    CONFIRMED,
    REFUTED,
    UNOBSERVED,
    TraceView,
    Verdict,
)
from repro.perfmodel.model import ModelParams, PerformanceModel, section4_params
from repro.trace.phases import PHASES

#: Share drift a phase may show over its model budget before a finding
#: on it is CONFIRMED.
TOL = 0.05

#: The measured phase a rule's cost pattern inflates when real.
PHASE_OF_RULE: dict[str, str] = {
    "SPP201": "comm",     # per-message copy sits on the send path
    "SPP202": "spec",     # history rebuild feeds the speculator
    "SPP203": "compute",  # allocation inside the force kernel
    "SPP204": "check",    # ring scan per verified message
    "SPP205": "compute",  # attribute churn inside the kernel
    "SPP207": "comm",     # mutable payload forces the copy
    "SPP208": "comm",     # sizing recomputed per message
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


def model_phase_shares(
    p: int, params: Optional[ModelParams] = None
) -> dict[str, float]:
    """The Eq. 8 phase budget on the bottleneck rank, as shares.

    Decomposes the bottleneck processor's iteration time into the five
    protocol components (communication is the *exposed* wait — the part
    speculation + computation fail to overlap) and normalises.
    """
    params = params if params is not None else section4_params()
    p = max(1, min(p, params.max_procs))
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
    diagnostics: Sequence[Diagnostic],
    view: TraceView,
    params: Optional[ModelParams] = None,
) -> tuple[dict[str, float], dict[str, float], list[Verdict]]:
    """Judge every distinct finding code against the trace.

    Returns ``(measured shares, model shares, verdicts)``; the model
    runs at the header's ``p``.
    """
    measured = measure_phase_shares(view)
    observed = observed_phases(view)
    modeled = model_phase_shares(view.required_header().p, params)
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
    measured: dict[str, float], modeled: dict[str, float]
) -> str:
    """Side-by-side measured vs model phase shares (text report)."""
    lines = ["phase      measured    model"]
    for phase in PHASES:
        lines.append(
            f"{phase:<9s}  {measured.get(phase, 0.0):>7.1%}  {modeled.get(phase, 0.0):>7.1%}"
        )
    return "\n".join(lines)


def judge(
    view: TraceView, diagnostics: Sequence[Diagnostic]
) -> tuple[list[str], list[Verdict], int]:
    """specperf's ``--trace`` hook: a CONFIRMED cost claim fails the run."""
    measured, modeled, verdicts = check_contracts(diagnostics, view)
    header = [format_share_table(measured, modeled)]
    if not verdicts:
        header.append("cost contracts: no specperf findings to cross-reference")
    return header, verdicts, sum(v.status == CONFIRMED for v in verdicts)
