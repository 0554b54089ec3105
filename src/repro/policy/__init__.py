"""Backend-agnostic speculation policies.

The paper tunes FW and BW offline per algorithm and platform
(Section 3.2).  Everything *tunable* about the protocol lives here,
decoupled from both the engine's state machine and any particular
transport:

* :class:`WindowPolicy` — the protocol every forward-window
  controller implements: observe one iteration's signals (cumulative
  epoch wait, checks, rejects, and the transport's clock) and return
  the rank's next FW.
* :class:`StaticWindow` — the identity policy; a run with
  ``StaticWindow(fw)`` is effect-for-effect identical to a fixed-FW
  run (it never changes the window, so no
  :class:`~repro.engine.events.WindowChanged` is ever emitted).
* :class:`AimdWindow` — the AIMD controller; because it is seated
  *inside* :class:`~repro.engine.core.SpecEngine` it adapts on every
  backend (DES virtual time, loopback steps, real wall clocks).
* :class:`DegradedWindow` — a loss-aware wrapper around any policy:
  collapses FW toward 0 while the engine keeps reporting retransmits
  and re-arms the inner policy after a clean streak (the resilience
  layer's window response to persistent message loss).
* :class:`CascadePolicy` — the correction-cascade choice, replacing
  the stringly-typed ``cascade="recompute"|"none"`` previously
  validated in three separate constructors.

Policies are deliberately pure Python with no engine, transport or
numpy imports: they must pickle cleanly across ``multiprocessing``
workers and hash cheaply into the model checker's state fingerprints.
"""

from repro.policy.cascade import CascadePolicy
from repro.policy.window import (
    AimdWindow,
    DegradedWindow,
    StaticWindow,
    WindowPolicy,
)

__all__ = [
    "AimdWindow",
    "CascadePolicy",
    "DegradedWindow",
    "StaticWindow",
    "WindowPolicy",
]
