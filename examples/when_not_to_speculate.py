#!/usr/bin/env python
"""When speculation fails: chaos and conservation.

The paper scopes its technique: "speculation is most useful in
applications where the variables generally follow a relatively slow
changing trend".  This example probes the two ways that condition can
break:

1. **Chaos** — a coupled lattice of logistic maps.  In the chaotic
   regime no extrapolation tracks the state, so nearly everything is
   rejected and the technique degrades to blocking-plus-overhead
   (gracefully: with θ = 0 the answers stay exact).  Dial the map back
   to its stable regime and speculation abruptly works again.
2. **Conservation** — the 1-D wave equation.  Speculation *predicts*
   well here (values drift smoothly), but every error accepted under a
   nonzero θ persists forever in an energy-conserving medium.  The
   deviation from the serial solution grows with the run instead of
   decaying like it does for the (dissipative) heat equation.

Run:  python examples/when_not_to_speculate.py
"""

import numpy as np

from repro import CoupledMapLattice, RunConfig, WaveEquation1D, run, uniform_specs
from repro.netsim import ConstantLatency, DelayNetwork
from repro.vm import Cluster


def cluster(p=4, latency=0.3):
    return Cluster(
        uniform_specs(p, capacity=1e6),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(latency)),
    )


def chaos_demo() -> None:
    rng = np.random.default_rng(9)
    initial = rng.uniform(0.2, 0.8, size=64)
    print("1. Chaotic coupled map lattice (theta = 1e-3)")
    print(f"   {'regime':12s}{'r':>6s}{'rejected %':>12s}")
    for label, r in (("stable", 2.5), ("chaotic", 3.9)):
        prog = CoupledMapLattice(initial, [1e6] * 4, 40, r=r, threshold=1e-3)
        result = run(RunConfig(prog, fw=1, cluster=cluster()))
        print(f"   {label:12s}{r:>6.1f}{100 * result.rejection_rate:>12.1f}")
        # theta=0 sanity: the framework never corrupts the answer.
        exact_prog = CoupledMapLattice(initial, [1e6] * 4, 40, r=r, threshold=0.0)
        exact = run(RunConfig(exact_prog, fw=1, cluster=cluster()))
        np.testing.assert_allclose(
            exact_prog.gather(exact.results), exact_prog.reference(), atol=1e-9
        )
    print("   (theta = 0 runs verified bit-exact in both regimes)\n")


def conservation_demo() -> None:
    x = np.linspace(0.0, 1.0, 96)
    pulse = np.exp(-((x - 0.3) ** 2) / (2 * 0.08**2))
    print("2. Wave equation: accepted errors never decay")
    print(f"   {'theta':>8s}{'rejected %':>12s}{'final deviation':>18s}")
    for theta in (0.0, 5e-3, 2e-2):
        prog = WaveEquation1D(pulse, [1e6] * 4, 80, courant=1.0, threshold=theta)
        result = run(RunConfig(prog, fw=1, cluster=cluster(latency=0.4)))
        dev = float(np.max(np.abs(prog.gather(result.results) - prog.reference())))
        print(f"   {theta:>8.3g}{100 * result.rejection_rate:>12.1f}{dev:>18.2e}")
    print(
        "\n   A heat-equation run at the same thresholds stays within ~theta\n"
        "   of the serial solution because diffusion damps the injected\n"
        "   errors; the wave equation carries them forever.  Conservative\n"
        "   dynamics demand a much tighter theta for the same fidelity."
    )


def main() -> None:
    chaos_demo()
    conservation_demo()


if __name__ == "__main__":
    main()
