"""PVM-like virtual machine on the discrete-event kernel.

Substitutes the paper's testbed — PVM on a heterogeneous network of
SUN/Sparc workstations — with simulated processors:

* :class:`ProcessorSpec` — a processor's capacity M_i (operations per
  virtual second), mirroring the paper's MIPS ratings (10–120 MIPS).
* :class:`VirtualProcessor` — the per-rank execution context the DES
  transport drives: ``seconds_for`` / ``charged`` (virtual compute at
  the processor's capacity), ``send`` (asynchronous), ``recv``
  (blocking) and ``try_recv`` (the non-blocking arrival check), all
  phase-traced.  A rank is slowed by a
  :class:`~repro.faults.RankFault`, on every backend alike.
* :class:`Cluster` — builds the processors over a
  :class:`~repro.netsim.network.Network` and launches per-rank program
  generators.
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
