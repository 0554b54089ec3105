"""ABL-BW: speculation-function / backward-window ablation.

The paper leaves "using higher order derivatives ... more complex
speculation" as future work.  This ablation compares zero-order hold,
linear extrapolation and quadratic extrapolation on the Kuramoto
oscillator workload (phases drift ~linearly), measuring rejection rate
and makespan at a fixed tight threshold.
"""

import numpy as np

from repro.api import RunConfig, run
from repro.apps import KuramotoProgram
from repro.core import LinearExtrapolation, PolynomialExtrapolation, ZeroOrderHold
from repro.harness import format_table
from repro.netsim import ConstantLatency, DelayNetwork, StochasticLatency
from repro.vm import Cluster, uniform_specs

SPECULATORS = {
    "zero-order hold (BW=1)": ZeroOrderHold(),
    "linear (BW=2)": LinearExtrapolation(),
    "quadratic (BW=3)": PolynomialExtrapolation(order=2),
}


def run_ablation():
    rows = []
    for name, speculator in SPECULATORS.items():
        prog = KuramotoProgram.random(
            120, [1e6] * 4, 30, seed=5, dt=0.05, threshold=2e-3,
            speculator=speculator,
        )
        cluster = Cluster(
            uniform_specs(4, capacity=1e6),
            network_factory=lambda env: DelayNetwork(
                env, StochasticLatency(ConstantLatency(0.5), sigma=0.5, seed=9)
            ),
        )
        result = run(RunConfig(prog, fw=1, cluster=cluster))
        rows.append(
            [name, 100.0 * result.rejection_rate, result.wall_seconds]
        )
    return rows


def bench_ablation_speculators(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print()
    print(format_table(
        ["speculator", "rejected (%)", "makespan (s)"],
        rows,
        title="ABL-BW: speculation function vs rejection rate (Kuramoto)",
    ))
    by_name = {r[0]: r for r in rows}
    zoh = by_name["zero-order hold (BW=1)"]
    lin = by_name["linear (BW=2)"]
    # Linear extrapolation tracks drifting phases far better than a hold.
    assert lin[1] < zoh[1]
    assert lin[2] <= zoh[2] + 1e-9
