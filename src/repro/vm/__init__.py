"""PVM-like virtual machine on the discrete-event kernel.

Substitutes the paper's testbed — PVM on a heterogeneous network of
SUN/Sparc workstations — with simulated processors:

* :class:`ProcessorSpec` — a processor's capacity M_i (operations per
  virtual second), mirroring the paper's MIPS ratings (10–120 MIPS).
* :class:`BackgroundLoad` — multiplicative compute slowdown modelling
  timeshared background processes.
* :class:`VirtualProcessor` — the per-rank execution context exposing
  the PVM-flavoured API used by programs: ``compute`` (burn virtual
  cycles), ``send`` (asynchronous), ``recv`` (blocking), ``try_recv`` /
  ``probe`` (non-blocking arrival checks), all phase-traced.
* :class:`Cluster` — builds the processors over a
  :class:`~repro.netsim.network.Network` and launches per-rank program
  generators.
* :func:`linear_gradient_specs` — the Section-4 platform: p processors
  whose capacities fall linearly from M_1 to M_1/ratio.
"""

from repro.vm.cluster import Cluster
from repro.vm.load import BackgroundLoad, RandomWalkLoad
from repro.vm.message import Message
from repro.vm.processor import VirtualProcessor
from repro.vm.specs import ProcessorSpec, linear_gradient_specs, uniform_specs

__all__ = [
    "BackgroundLoad",
    "Cluster",
    "linear_gradient_specs",
    "Message",
    "ProcessorSpec",
    "RandomWalkLoad",
    "uniform_specs",
    "VirtualProcessor",
]
