"""Real-parallel execution backend (multiprocessing).

Runs a :class:`~repro.core.SyncIterativeProgram` on actual OS
processes exchanging numpy payloads over pipes, with optional injected
per-message latency standing in for the paper's slow Ethernet.  Wall
clock replaces virtual time; the speculation protocol (FW = 0 or 1) is
the same as the simulator's, so the simulated findings can be
validated on real parallel hardware.

PVM is substituted by ``multiprocessing`` per the reproduction notes:
mpi4py is the natural modern target (the API mirrors its
send/recv/probe idioms) but is unavailable offline.
"""

from repro.parallel.runner import MPRunner

__all__ = ["MPRunner"]
