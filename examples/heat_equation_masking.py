#!/usr/bin/env python
"""Speculation on a PDE solver: 1-D heat equation, strip decomposition.

Unlike the all-to-all N-body, a Jacobi sweep only reads its neighbor
strips, so the driver's dependency topology keeps messages (and
speculation) local.  Boundary temperatures drift smoothly, so linear
extrapolation speculates them almost perfectly and the exchange delay
is fully masked.

Run:  python examples/heat_equation_masking.py
"""

import numpy as np

from repro import HeatEquation1D, RunConfig, run, uniform_specs
from repro.netsim import ConstantLatency, DelayNetwork
from repro.vm import Cluster


def main() -> None:
    cells, procs, sweeps = 512, 8, 60
    rng = np.random.default_rng(0)
    initial = rng.uniform(0.0, 1.0, size=cells)

    def go(fw: int):
        program = HeatEquation1D(
            initial,
            [2e5] * procs,
            iterations=sweeps,
            r=0.25,
            boundary=(1.0, 0.0),
            threshold=2e-3,
        )
        cluster = Cluster(
            uniform_specs(procs, capacity=2e5),
            # The Jacobi sweep is cheap, so even a modest per-message
            # delay dominates; exactly the regime speculation targets.
            network_factory=lambda env: DelayNetwork(env, ConstantLatency(0.002)),
        )
        return program, run(RunConfig(program, fw=fw, cluster=cluster))

    program, blocking = go(0)
    _, speculative = go(1)

    field = program.gather(speculative.results)
    serial = program.reference()
    max_dev = float(np.max(np.abs(field - serial)))

    print(f"1-D heat equation: {cells} cells on {procs} strips, {sweeps} sweeps")
    print(f"  blocking    : {blocking.wall_seconds:.4f} virtual s")
    print(f"  speculative : {speculative.wall_seconds:.4f} virtual s "
          f"({blocking.wall_seconds / speculative.wall_seconds - 1:+.0%})")
    print(f"  rejected speculations : {100 * speculative.rejection_rate:.2f}%")
    print(f"  max deviation from the serial solution: {max_dev:.2e}")
    print(f"  messages per rank: "
          f"{[s.messages_sent for s in speculative.stats]} (neighbors only)")


if __name__ == "__main__":
    main()
