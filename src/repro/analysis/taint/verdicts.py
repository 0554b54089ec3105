"""Trace-replay verdicts for spectaint findings.

A static escape finding says "on some path an unconfirmed speculative
value reaches an irreversible effect".  A recorded
:class:`~repro.trace.events.EventLog` can judge whether a real run
walked such a path: every rank's events are totally ordered by ``seq``
(the :class:`~repro.analysis.trace_view.TraceView` holds them so),
a ``speculate`` opens a speculation window on its rank, and a matching
``verify``/``correct`` closes it — so a ``send`` emitted *while the
window is open* is a runtime witness that speculative state reached an
irreversible effect before its confirmation.  Each finding becomes:

* **CONFIRMED** — the trace contains such a witness: a speculative
  value demonstrably reached a sink before its confirming event;
* **REFUTED** — the run exercised both speculation and the sinks, and
  every sink fired with all speculation windows closed: this execution
  stayed inside the rollback discipline;
* **UNOBSERVED** — the trace never exercised the combination (no
  speculation, or no sink events), so it is silent about the claim.

``SPT308`` (dead rollback handler) is judged differently: a trace that
*corrects* refutes it (the recovery path demonstrably ran); a trace
that speculates and verifies but never corrects is consistent with the
handler being dead and confirms the concern.

Determinism: the DES is seeded, so a recorded trace — and therefore
every verdict — is byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.trace_view import (
    CONFIRMED,
    REFUTED,
    UNOBSERVED,
    TraceView,
    Verdict,
)

#: Static codes judged by the send-during-open-speculation witness.
_ESCAPE_CODES = frozenset({"SPT301", "SPT302", "SPT307"})


@dataclass(frozen=True)
class EscapeWitness:
    """One send observed while its rank had an open speculation."""

    rank: int
    seq: int
    time: float
    family: Optional[str]
    iteration: Optional[int]
    open_specs: int

    def format_text(self) -> str:
        """``rank 0 seq 12: send(vars@3) with 2 speculation(s) open``."""
        tag = self.family or "?"
        if self.iteration is not None:
            tag = f"{tag}@{self.iteration}"
        return (
            f"rank {self.rank} seq {self.seq}: send({tag}) with "
            f"{self.open_specs} speculation(s) open"
        )


def find_escapes(view: TraceView) -> list[EscapeWitness]:
    """Every send emitted during an open speculation window.

    Per rank, in program order: ``speculate`` opens a window keyed by
    its ``(family, iteration)``; ``verify``/``correct`` closes the
    matching window (or, when tags don't line up, the oldest open one —
    closing *something* is the conservative direction: fewer witnesses,
    never spurious ones).
    """
    witnesses: list[EscapeWitness] = []
    for rank, events in view.by_rank.items():
        open_specs: list[tuple[Optional[str], Optional[int]]] = []
        for ev in events:
            key = (ev.family, ev.iteration)
            if ev.kind == "speculate":
                open_specs.append(key)
            elif ev.kind in ("verify", "correct"):
                if key in open_specs:
                    open_specs.remove(key)
                elif open_specs:
                    open_specs.pop(0)
            elif ev.kind == "send" and open_specs:
                witnesses.append(
                    EscapeWitness(
                        rank=rank,
                        seq=ev.seq,
                        time=ev.time,
                        family=ev.family,
                        iteration=ev.iteration,
                        open_specs=len(open_specs),
                    )
                )
    return witnesses


def check_taint(
    diagnostics: Sequence[Diagnostic], view: TraceView
) -> tuple[list[EscapeWitness], list[Verdict]]:
    """Judge every SPT finding against one recorded trace.

    Returns ``(escape witnesses, verdicts)``: the one escape scan feeds
    both the verdicts and the report's header.
    """
    witnesses = find_escapes(view)
    speculated = bool(view.kind_counts["speculate"])
    sent = bool(view.kind_counts["send"])
    verified = bool(view.kind_counts["verify"])
    corrected = view.kind_counts["correct"]

    verdicts: list[Verdict] = []
    for diag in sorted(diagnostics):
        if not diag.code.startswith("SPT"):
            continue
        if diag.code in _ESCAPE_CODES:
            if witnesses:
                status = CONFIRMED
                detail = (
                    f"{len(witnesses)} escape witness(es); first: "
                    + witnesses[0].format_text()
                )
            elif speculated and sent:
                status = REFUTED
                detail = (
                    "trace speculates and sends, but every send ran "
                    "with all speculation windows closed"
                )
            else:
                status = UNOBSERVED
                missing = "speculation" if not speculated else "sink events"
                detail = f"trace contains no {missing}; silent on this claim"
        elif diag.code == "SPT308":
            if corrected:
                status = REFUTED
                detail = (
                    f"{corrected} correct event(s): the "
                    "rollback path demonstrably ran"
                )
            elif speculated and verified:
                status = CONFIRMED
                detail = (
                    "trace speculates and verifies but never corrects — "
                    "consistent with an unreachable recovery path"
                )
            else:
                status = UNOBSERVED
                detail = "trace never exercised the speculation machinery"
        else:  # pragma: no cover - future codes default to silence
            status = UNOBSERVED
            detail = "no trace judgement defined for this code"
        where = f"@ {diag.path}:{diag.line}"
        verdicts.append(
            Verdict("taint-verdict", diag.code, where, status, None, None, detail)
        )
    return witnesses, verdicts


def judge(
    view: TraceView, diagnostics: Sequence[Diagnostic]
) -> tuple[list[str], list[Verdict], int]:
    """spectaint's ``--trace`` hook: a CONFIRMED escape fails the run."""
    witnesses, verdicts = check_taint(diagnostics, view)
    lines = [
        f"trace replay: {len(view.events)} event(s), "
        f"{len(witnesses)} escape witness(es)"
    ]
    if not verdicts:
        lines.append("trace replay: no static SPT findings to cross-reference")
    lines += [v.format_text() for v in verdicts]
    return lines, verdicts, sum(v.status == CONFIRMED for v in verdicts)
