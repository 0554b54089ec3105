"""specfault — seeded fault injection and the protocol's resilience seams.

The package has three layers:

* :class:`FaultPlan` — a declarative, seeded description of what goes
  wrong: drop / duplicate / delay / reorder per edge, straggler
  slowdown and crash per rank, each gated by an iteration trigger
  window.  Every decision is a pure function of
  ``(plan.seed, src, dst, seq)``, so the same plan injects the same
  faults on every backend and every run.
* :class:`FaultInjector` — the per-receiving-rank runtime core: it
  filters wire arrivals, retains dropped messages in a retransmit
  buffer, schedules duplicate/delayed/retransmitted re-deliveries
  against its receive-poll clock, and accumulates the
  :class:`FaultSummary`.
* The seam — :func:`wrap_engine` wraps an engine's effect stream in a
  :class:`FaultyEngine`, on every backend (DES, loopback, mp).  It
  injects on the *receive path*, downstream of the transport's own
  wire bookkeeping, so wire-level invariants (sequence-gap-freedom at
  the transport) stay intact and the engine-level resilience layer is
  what heals the losses.
"""

from repro.faults.injector import FaultInjector, InjectedCrash
from repro.faults.middleware import FaultyEngine, wrap_engine
from repro.faults.plan import (
    EdgeFault,
    FaultPlan,
    FaultSummary,
    RankFault,
    TriggerWindow,
    merge_summaries,
)

__all__ = [
    "EdgeFault",
    "FaultInjector",
    "FaultPlan",
    "FaultSummary",
    "FaultyEngine",
    "InjectedCrash",
    "RankFault",
    "TriggerWindow",
    "merge_summaries",
    "wrap_engine",
]
