"""Micro-harnesses: one layer's public functions, called directly.

Each harness returns ``{metric name: [one value per repetition]}``; the
caller reports the median.  Shapes follow the workloads: ``b62`` is the
nominal 62-particle block of N=1000 on p=16, ``b500`` the 500-particle
block of N=2000 on p=4 (and of N=1000 on p=2).
"""

from __future__ import annotations

import multiprocessing
from multiprocessing.reduction import ForkingPickler
from time import perf_counter
from typing import Callable

import numpy as np

from repro.api import RunConfig, run
from repro.des import Environment
from repro.engine.events import Recv, Send
from repro.engine.pipes import PipeTransport, close_mesh, full_mesh
from repro.harness.toys import ConstantProgram
from repro.nbody.forces import accelerations_from_sources
from repro.nbody.speculation import pairwise_error_ratios, speculate_positions
from repro.platforms import wustl_1994
from repro.vm import Cluster, uniform_specs

BLOCKS = {"b62": 62, "b500": 500}
#: Same values as the workloads use.
SOFTENING, DT = 0.1, 0.015


def _us_per_call(fn: Callable[[], object], calls: int, reps: int) -> list[float]:
    out = []
    for _ in range(reps):
        start = perf_counter()
        for _ in range(calls):
            fn()
        out.append((perf_counter() - start) / calls * 1e6)
    return out


def nbody(quick: bool) -> dict[str, list[float]]:
    """Force, Eq. 11 ratio and Eq. 10 extrapolation kernels per block shape."""
    reps = 3 if quick else 7
    rng = np.random.default_rng(0)
    out: dict[str, list[float]] = {}
    for tag, n in BLOCKS.items():
        own, src, vel = (rng.uniform(-0.5, 0.5, (n, 3)) for _ in range(3))
        moved = src + 1e-4 * vel
        mass = np.full(n, 1e-3)
        calls = max(2, (20_000 if quick else 400_000) // (n * n))
        out[f"nbody.force_us.{tag}"] = force = _us_per_call(
            lambda: accelerations_from_sources(own, src, mass, softening=SOFTENING),
            calls, reps)
        out[f"nbody.ratio_us.{tag}"] = _us_per_call(
            lambda: pairwise_error_ratios(moved, src, own), calls, reps)
        out[f"nbody.extrap_us.{tag}"] = _us_per_call(
            lambda: speculate_positions(src, vel, DT), 20 * calls, reps)
        out[f"nbody.force_mpairs_per_s.{tag}"] = [n * n / us for us in force]
        # Computed, not measured: the float64 arrays one force call reads,
        # allocates and returns -- targets, sources, masses, the (n, n, 3)
        # separations, the (n, n) squared and inverse-cubed distances, and
        # the (n, 3) result.
        out[f"nbody.force_bytes_per_call.{tag}"] = [
            8.0 * (3 * n + 3 * n + n + 3 * n * n + 2 * n * n + 3 * n)]
    return out


def engine(quick: bool) -> dict[str, list[float]]:
    """Protocol cost per rank-iteration with no kernel and no DES under it."""
    p, iterations = 8, 40 if quick else 400
    out = []
    for _ in range(2 if quick else 5):
        program = ConstantProgram(nprocs=p, iterations=iterations)
        start = perf_counter()
        run(RunConfig(program, backend="loopback", fw=1, sanitize=False))
        out.append((perf_counter() - start) / (p * iterations) * 1e6)
    return {"engine.loopback_null_us_per_rank_iter": out}


def _timeouts(n: int) -> float:
    env = Environment()

    def sleeper():
        for _ in range(n):
            yield env.timeout(1.0)

    env.process(sleeper())
    start = perf_counter()
    env.run()
    return (perf_counter() - start) / n * 1e6


def _pingpong(n: int) -> float:
    env = Environment()
    box = {"a": env.event(), "b": env.event()}

    def server():
        for _ in range(n):
            yield env.timeout(1.0)
            box["b"].succeed()
            yield box["a"]
            box["a"] = env.event()

    def returner():
        for _ in range(n):
            yield box["b"]
            box["b"] = env.event()
            yield env.timeout(1.0)
            box["a"].succeed()

    env.process(server())
    env.process(returner())
    events = 0
    start = perf_counter()
    while env.peek() != float("inf"):
        env.step()
        events += 1
    return events / (perf_counter() - start)


def des(quick: bool) -> dict[str, list[float]]:
    """The event kernel alone: timeouts, and two processes waking each other."""
    n, reps = (2_000, 3) if quick else (20_000, 7)
    return {
        "des.timeout_us": [_timeouts(n) for _ in range(reps)],
        "des.pingpong_events_per_s": [_pingpong(n) for _ in range(reps)],
    }


def _msg_us(cluster: Cluster, n: int) -> float:
    payload = np.zeros(64)

    def program(proc):
        for i in range(n):
            if proc.rank == 0:
                proc.send(1, payload, tag=("vars", i))
                yield from proc.recv(src=1, tag=("vars", i))
            else:
                yield from proc.recv(src=0, tag=("vars", i))
                proc.send(0, payload, tag=("vars", i))

    start = perf_counter()
    cluster.run(program)
    return (perf_counter() - start) / (2 * n) * 1e6


def vm(quick: bool) -> dict[str, list[float]]:
    """One send + recv between two virtual processors, per network model."""
    n, reps = (200, 3) if quick else (2_000, 7)
    return {
        "vm.msg_us.delay": [_msg_us(Cluster(uniform_specs(2)), n) for _ in range(reps)],
        "vm.msg_us.bus": [_msg_us(wustl_1994(p=2).cluster(), n) for _ in range(reps)],
    }


def pipes(quick: bool) -> dict[str, list[float]]:
    """A b500 block there and back over real pipes, both ends in this process."""
    n, reps = (50, 3) if quick else (300, 7)
    block = np.zeros((BLOCKS["b500"], 6))
    mesh = full_mesh(multiprocessing.get_context(), 2)
    ends = [PipeTransport(rank, mesh[rank], sanitize=False) for rank in (0, 1)]
    out = []
    try:
        seq = 0
        for _ in range(reps):
            start = perf_counter()
            for _ in range(n):
                for src, dst in ((0, 1), (1, 0)):
                    ends[src].send(Send(dst=dst, payload=block, iteration=seq,
                                        nbytes=block.nbytes, seq=seq))
                    ends[dst].recv(Recv(phase="comm", iteration=seq))
                seq += 1
            out.append((perf_counter() - start) / n * 1e6)
    finally:
        close_mesh(conn for row in mesh.values() for conn in row.values())
    # Computed: the bytes Connection.send pickles for one wire message.
    wire = len(ForkingPickler.dumps((0, 0.0, 0, block)))
    return {"pipes.roundtrip_us.b500": out, "pipes.pickled_bytes.b500": [float(wire)]}


#: layer -> harness; a workload runs the harnesses of the layers on its path.
HARNESSES: dict[str, Callable[[bool], dict[str, list[float]]]] = {
    "nbody": nbody, "engine": engine, "des": des, "vm": vm, "pipes": pipes,
}
