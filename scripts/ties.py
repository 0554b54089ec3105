"""The tie-heavy DES grid: one JSON line per run, to compare across trees.

Calendar entries that share one virtual instant run in (priority,
insertion) order, and a change to the simulator can reorder them
without moving any single delay.  This grid makes such ties common and
prints what a reorder would move, so that two trees' outputs can be
compared line for line (``scripts/parity.py --parent REV`` runs it as
the ``ties`` row).

The grid: p 2-4 x fw 0-3 x four programs (Constant, Jumpy, Jacobi,
heat) x both cascade policies x four networks:

* ``delay`` — a contention-free ``DelayNetwork`` on uniform processors
  whose latency is exactly one compute, so arrivals land on the very
  instant a compute ends;
* ``wustl`` — the calibrated 1994 testbed ``wustl_1994(p)``;
* ``wustl-noisy`` — the same with jitter, Poisson background frames
  and bursts;
* ``switched`` — the ABL-NET switched LAN at the testbed's bandwidth
  and endpoint latency.

Each line holds the run's makespan (``repr``), the final digest, every
rank's ``SpecStats`` and a SHA-256 of every phase row.  It uses only
program constructors, platform presets and ``repro.api.run``.

Usage::

    PYTHONPATH=src python scripts/ties.py > ties.jsonl
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Callable, Dict, Iterator

import numpy as np

from repro.api import RunConfig, run
from repro.apps.heat import HeatEquation1D
from repro.apps.jacobi import JacobiSolver, diagonally_dominant_system
from repro.harness.toys import ConstantProgram, JumpyProgram
from repro.netsim import ConstantLatency, DelayNetwork, SwitchedNetwork
from repro.platforms import WUSTL_BUS_BANDWIDTH, WUSTL_ENDPOINT_LATENCY, wustl_1994
from repro.vm import Cluster, uniform_specs

ITERATIONS = 8
#: Ops per second of the ``delay`` network's uniform processors.
CAPACITY = 1000.0

PROGRAMS: Dict[str, Callable[[int], object]] = {
    "constant": lambda p: ConstantProgram(
        nprocs=p, iterations=ITERATIONS, block_size=8, ops_per_compute=1e3),
    "jumpy": lambda p: JumpyProgram(
        nprocs=p, iterations=ITERATIONS, block_size=8, ops_per_compute=1e3,
        threshold=0.5),
    "jacobi": lambda p: JacobiSolver(
        *diagonally_dominant_system(24, seed=7), capacities=[1.0] * p,
        iterations=ITERATIONS, threshold=1e-9),
    "heat": lambda p: HeatEquation1D(
        np.sin(np.linspace(0.0, np.pi, 48)), capacities=[1.0] * p,
        iterations=ITERATIONS),
}


def _delay(p: int, program) -> Cluster:
    compute = program.compute_ops(0) / CAPACITY
    return Cluster(
        uniform_specs(p, capacity=CAPACITY),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(compute)))


def _switched(p: int, program) -> Cluster:
    return Cluster(
        wustl_1994(p).specs,
        network_factory=lambda env: SwitchedNetwork(
            env, nprocs=p, bandwidth=WUSTL_BUS_BANDWIDTH,
            latency=ConstantLatency(WUSTL_ENDPOINT_LATENCY)))


NETWORKS: Dict[str, Callable[[int, object], Cluster]] = {
    "delay": _delay,
    "wustl": lambda p, program: wustl_1994(p).cluster(),
    "wustl-noisy": lambda p, program: wustl_1994(
        p, jitter_sigma=0.8, background_frames_per_s=24, bursty_traffic=True,
        seed=1).cluster(),
    "switched": _switched,
}


def rows_digest(traces) -> str:
    """SHA-256 over every rank's phase rows, each as ``repr`` floats."""
    digest = hashlib.sha256()
    for trace in traces:
        for row in trace.intervals:
            digest.update(
                f"{trace.rank} {row.phase} {row.start!r} {row.end!r} "
                f"{row.iteration}\n".encode())
    return digest.hexdigest()


def grid() -> Iterator[dict]:
    for network in NETWORKS:
        for name in PROGRAMS:
            for p in (2, 3, 4):
                for fw in range(4):
                    for cascade in ("recompute", "none"):
                        program = PROGRAMS[name](p)
                        report = run(RunConfig(
                            program, backend="des", fw=fw, cascade=cascade,
                            cluster=NETWORKS[network](p, program)))
                        yield {
                            "network": network, "program": name, "p": p,
                            "fw": fw, "cascade": cascade,
                            "makespan": repr(float(report.wall_seconds)),
                            "final_digest": [
                                repr(float(np.asarray(report.results[r]).sum()))
                                for r in sorted(report.results)],
                            "stats": [dataclasses.asdict(s) for s in report.stats],
                            "rows": rows_digest(report.traces),
                        }


def main() -> int:
    for line in grid():
        print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
