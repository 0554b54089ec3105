"""PVM-like virtual machine on the discrete-event kernel.

Substitutes the paper's testbed — PVM on a heterogeneous network of
SUN/Sparc workstations — with simulated processors:

* :class:`ProcessorSpec` — a processor's capacity M_i (operations per
  virtual second), mirroring the paper's MIPS ratings (10–120 MIPS).
* :class:`VirtualProcessor` — one rank's processor: ``seconds_for``
  (virtual compute at its capacity), a phase trace, and PVM-style
  ``send`` (asynchronous) / ``recv`` (blocking) for a program run
  through ``Cluster.run``.  A rank is slowed by a
  :class:`~repro.faults.RankFault`, on every backend alike.
* :class:`Cluster` — the processors over a
  :class:`~repro.netsim.network.Network`, on whose calendar the DES
  backend's :class:`~repro.engine.loopback.CalendarRunner` steps one
  engine per processor; ``run`` launches per-rank program generators.
* :func:`linear_gradient_specs` — the Section-4 platform: p processors
  whose capacities fall linearly from M_1 to M_1/ratio.
"""

from repro.vm.cluster import Cluster
from repro.vm.message import Message
from repro.vm.processor import VirtualProcessor
from repro.vm.specs import ProcessorSpec, linear_gradient_specs, uniform_specs

__all__ = [
    "Cluster",
    "linear_gradient_specs",
    "Message",
    "ProcessorSpec",
    "uniform_specs",
    "VirtualProcessor",
]
