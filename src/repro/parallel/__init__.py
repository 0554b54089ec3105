"""Real-parallel execution backend (multiprocessing).

Runs a :class:`~repro.core.SyncIterativeProgram` on actual OS
processes exchanging numpy payloads over pipes, with optional injected
per-message latency standing in for the paper's slow Ethernet.  Wall
clock replaces virtual time; the speculation protocol is the same as
the simulator's, so the simulated findings can be validated on real
parallel hardware.  Reach it through
``repro.api.run(RunConfig(program, backend="mp", ...))``.

PVM is substituted by ``multiprocessing`` per the reproduction notes:
mpi4py is the natural modern target (the API mirrors its
send/recv/probe idioms) but is unavailable offline.
"""
