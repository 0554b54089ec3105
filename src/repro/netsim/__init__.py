"""Network models for the simulated cluster.

This package substitutes the paper's physical substrate — a shared
10 Mb/s Ethernet connecting up to 16 SUN/Sparc workstations — with
composable delay models:

* :mod:`repro.netsim.latency` — per-message latency models: constant,
  stochastic (log-normal jitter) and transient spikes (the Fig. 4
  scenario).  The mp backend's pipe transport draws from the same
  models, in wall seconds.
* :mod:`repro.netsim.bus` — a shared-medium bus with FIFO contention
  and optional background traffic, reproducing the contention-driven
  growth of t_comm with p that the paper observes beyond 8 processors.
* :mod:`repro.netsim.network` — the transport interface used by the
  virtual machine: ``transmit(src, dst, nbytes, deliver)`` puts
  ``deliver`` on the calendar for the delivery instant.
"""

from repro.netsim.bus import BackgroundTraffic, BurstyTraffic, SharedBus
from repro.netsim.latency import (
    ConstantLatency,
    LatencyModel,
    StochasticLatency,
    TransientSpikes,
)
from repro.netsim.network import BusNetwork, DelayNetwork, Network, SwitchedNetwork

__all__ = [
    "BackgroundTraffic",
    "BurstyTraffic",
    "BusNetwork",
    "ConstantLatency",
    "DelayNetwork",
    "LatencyModel",
    "Network",
    "SharedBus",
    "StochasticLatency",
    "SwitchedNetwork",
    "TransientSpikes",
]
