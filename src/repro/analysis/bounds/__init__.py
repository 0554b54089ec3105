"""specbound: speculation-resource bounds and hot-path costs.

Three layers:

* :mod:`repro.analysis.bounds.attribution` — assigns every function a
  set of protocol phases by seeding well-known protocol entry points
  and propagating caller → callee over the specflow call graph, and
  marks the functions a protocol seat reaches as hot;
* :mod:`repro.analysis.bounds.rules` — per-function rules over the
  specflow CFG and that attribution: a protocol buffer or loop no
  protocol parameter bounds (SPB405, SPB406, SPB408), and a
  per-message cost on the receive path (SPP204);
* :mod:`repro.analysis.bounds.contracts` — the trace-validated
  contracts: the protocol's four occupancy bounds
  (:data:`OCCUPANCY_BOUNDS`) at the ``(p, max_fw, iterations)`` a
  recorded trace's header carries, and the SPP findings against the
  performance model's per-phase time budget at its ``p``.
"""

from repro.analysis.bounds.contracts import (
    OCCUPANCY_BOUNDS,
    PHASE_OF_RULE,
    check_contracts,
    check_occupancy,
    measure_phase_shares,
    model_phase_shares,
    observed_cascade_depth,
    observed_inbox_depths,
    observed_inflight_sends,
)
from repro.analysis.bounds.rules import findings

__all__ = [
    "OCCUPANCY_BOUNDS",
    "PHASE_OF_RULE",
    "check_contracts",
    "check_occupancy",
    "findings",
    "measure_phase_shares",
    "model_phase_shares",
    "observed_cascade_depth",
    "observed_inbox_depths",
    "observed_inflight_sends",
]
