#!/usr/bin/env python
"""Choosing a speculation function: Kuramoto oscillators.

Phases drift almost linearly at each oscillator's natural frequency,
so the quality of speculation depends strongly on the extrapolation
order (the paper's backward-window trade-off).  This example sweeps
three speculators on the same synchronising swarm and reports
rejection rates and the resulting run times.

Run:  python examples/oscillator_sync.py
"""

from repro import (
    KuramotoProgram,
    LinearExtrapolation,
    PolynomialExtrapolation,
    RunConfig,
    ZeroOrderHold,
    run,
    uniform_specs,
)
from repro.netsim import ConstantLatency, DelayNetwork, StochasticLatency
from repro.vm import Cluster


def main() -> None:
    n, procs, steps = 200, 4, 50
    speculators = {
        "zero-order hold (BW=1)": ZeroOrderHold(),
        "linear extrapolation (BW=2)": LinearExtrapolation(),
        "quadratic extrapolation (BW=3)": PolynomialExtrapolation(order=2),
    }

    print(f"{n} Kuramoto oscillators on {procs} processors, {steps} steps\n")
    print(f"{'speculator':32s}{'rejected %':>11s}{'makespan (s)':>14s}{'sync R':>8s}")
    for name, speculator in speculators.items():
        program = KuramotoProgram.random(
            n, [4e3] * procs, steps, seed=4, dt=0.05,
            coupling=1.5, threshold=2e-3, speculator=speculator,
        )
        cluster = Cluster(
            uniform_specs(procs, capacity=4e3),
            network_factory=lambda env: DelayNetwork(
                env, StochasticLatency(ConstantLatency(0.4), sigma=0.5, seed=8)
            ),
        )
        result = run(RunConfig(program, fw=1, cluster=cluster))
        theta = program.gather(result.results)
        print(
            f"{name:32s}{100 * result.rejection_rate:>11.1f}"
            f"{result.wall_seconds:>14.2f}{program.synchrony(theta):>8.3f}"
        )

    print(
        "\nA larger backward window tracks the phase drift far better, so"
        "\nfewer speculations are rejected and less time is spent correcting."
    )


if __name__ == "__main__":
    main()
