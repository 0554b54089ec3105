"""specperf: static hot-path cost analysis with phase-cost contracts.

The third member of the analysis family.  speclint checks protocol
*syntax* per module; specflow checks protocol *state* across the call
graph; specperf checks protocol *cost*: which functions execute inside
which phase of the speculative iteration (send / receive / speculate /
compute / verify / correct), and whether their per-iteration work
matches what the calibrated performance model (Eq. 3-9) budgets for
that phase.

Three layers:

* :mod:`repro.analysis.perf.attribution` — assigns every function a
  set of protocol phases by seeding well-known protocol entry points
  and propagating caller → callee over the specflow call graph, and
  marks the functions a protocol seat reaches as hot;
* :mod:`repro.analysis.perf.rules` — the SPP201..SPP208 hot-path rule
  pack, each scoped to the phases where its cost pattern hurts;
* :mod:`repro.analysis.perf.contracts` — the differential half:
  measures, over a :class:`~repro.analysis.trace_view.TraceView` of a
  recorded run, the share of iteration time each phase actually
  consumed, and marks static findings CONFIRMED / REFUTED / UNOBSERVED
  against the model's phase budget.

Entry point: ``repro perf-lint [paths] [--format text|json|sarif]
[--trace LOG]`` (exit codes shared with ``lint``/``analyze``/``mc``).
"""

from repro.analysis.perf.attribution import Attribution, build_attribution
from repro.analysis.perf.contracts import (
    PHASE_OF_RULE,
    check_contracts,
    measure_phase_shares,
    model_phase_shares,
)
from repro.analysis.perf.rules import findings

__all__ = [
    "Attribution",
    "PHASE_OF_RULE",
    "build_attribution",
    "check_contracts",
    "findings",
    "measure_phase_shares",
    "model_phase_shares",
]
