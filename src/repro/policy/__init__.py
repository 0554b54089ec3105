"""Backend-agnostic speculation policies.

The paper tunes FW and BW offline per algorithm and platform
(Section 3.2).  Everything *tunable* about the protocol lives here,
decoupled from both the engine's state machine and any particular
transport:

* :class:`WindowPolicy` — the protocol every forward-window
  controller implements: observe one iteration's signals (cumulative
  wait, hidden latency, work and speculation ops, and the transport's
  clock) and return the rank's next FW.
* :class:`CostWindow` — the controller: it prices every window with
  the engine's pipelining law from each epoch's measured terms and
  moves toward the cheapest; because it is seated *inside*
  :class:`~repro.engine.core.SpecEngine` it adapts on every backend
  (DES virtual time, real wall clocks, charged ops where there is no
  clock).
* :class:`DegradedWindow` — a loss-aware wrapper around any policy:
  collapses FW toward 0 while the engine keeps reporting retransmits
  and re-arms the inner policy after a clean streak (the resilience
  layer's window response to persistent message loss).
* :class:`CascadePolicy` — the correction-cascade choice, replacing
  the stringly-typed ``cascade="recompute"|"none"`` previously
  validated in three separate constructors.

Policies are deliberately pure Python with no engine or transport
imports and plain-float marks: they must pickle cleanly across
``multiprocessing`` workers and hash cheaply into the model checker's
state fingerprints.
"""

from repro.policy.cascade import CascadePolicy
from repro.policy.window import (
    CostWindow,
    DegradedWindow,
    WindowPolicy,
)

__all__ = [
    "CascadePolicy",
    "CostWindow",
    "DegradedWindow",
    "WindowPolicy",
]
