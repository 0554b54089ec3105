"""ABL-NET: shared Ethernet vs switched LAN.

The paper attributes its large-p degradation to "network contention
(not accounted for in the model)".  This ablation reruns the p = 16
blocking N-body on a switched network with the same per-link bandwidth:
the contention-driven communication blow-up largely disappears, and so
does most of speculation's advantage.
"""

from repro.api import RunConfig, run
from repro.apps import NBodyProgram
from repro.harness import format_table
from repro.nbody import uniform_cube
from repro.netsim import ConstantLatency, SwitchedNetwork
from repro.platforms import (
    WUSTL_BUS_BANDWIDTH,
    WUSTL_ENDPOINT_LATENCY,
    wustl_1994,
)
from repro.vm import Cluster


def run_ablation():
    rows = []
    for network, fw in (("bus", 0), ("bus", 1), ("switch", 0), ("switch", 1)):
        platform = wustl_1994(p=16)
        system = uniform_cube(1000, seed=42, softening=0.1)
        prog = NBodyProgram(system, platform.capacities(), iterations=8,
                            dt=0.015, threshold=0.01)
        if network == "bus":
            cluster = platform.cluster()
        else:
            cluster = Cluster(
                platform.specs,
                network_factory=lambda env: SwitchedNetwork(
                    env, nprocs=16, bandwidth=WUSTL_BUS_BANDWIDTH,
                    latency=ConstantLatency(WUSTL_ENDPOINT_LATENCY),
                ),
            )
        result = run(RunConfig(prog, fw=fw, cascade="none", cluster=cluster))
        b = result.steady_breakdown()
        rows.append([network, fw, b["comm"], b.total])
    return rows


def bench_ablation_network(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print()
    print(format_table(
        ["network", "FW", "comm s/iter", "total s/iter"],
        rows,
        title="ABL-NET: shared Ethernet vs switched LAN (16 procs, N-body)",
    ))
    data = {(r[0], r[1]): r for r in rows}
    # The switch removes most of the blocking-run contention.
    assert data[("switch", 0)][2] < 0.5 * data[("bus", 0)][2]
    # Speculation's absolute saving is much larger on the bus.
    bus_saving = data[("bus", 0)][3] - data[("bus", 1)][3]
    switch_saving = data[("switch", 0)][3] - data[("switch", 1)][3]
    assert bus_saving > 2.0 * abs(switch_saving)
