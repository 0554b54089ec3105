"""ABL-BH: algorithmic efficiency vs speculation gain.

The paper's footnote 1 notes an O(N log N) algorithm exists but uses
O(N^2) "to illustrate the effectiveness of speculative computation".
This ablation runs both force backends on the same platform and finds
the complementary limit of the paper's story: Barnes-Hut shrinks the
computation phase below the all-to-all wire time, so the communication
*fraction* soars — but once the shared medium itself is the
bottleneck, no forward window can mask beyond the interconnect's
throughput.  Speculation hides latency, not insufficient bandwidth.
"""

from repro.api import RunConfig, run
from repro.apps import NBodyProgram
from repro.harness import format_table
from repro.nbody import uniform_cube
from repro.platforms import wustl_1994


def run_ablation():
    rows = []
    for method in ("direct", "barnes_hut"):
        times = {}
        comp = comm = 0.0
        for fw in (0, 1, 2):
            platform = wustl_1994(p=16, jitter_sigma=0.8,
                                  background_frames_per_s=24,
                                  bursty_traffic=True, seed=1)
            system = uniform_cube(1000, seed=42, softening=0.1)
            prog = NBodyProgram(
                system, platform.capacities(), iterations=8, dt=0.015,
                threshold=0.01, force_method=method, bh_theta=0.6,
            )
            res = run(RunConfig(prog, fw=fw, cascade="none",
                                cluster=platform.cluster()))
            times[fw] = res.time_per_iteration
            if fw == 0:
                b = res.steady_breakdown()
                comp, comm = b["compute"], b["comm"]
        best = min(times.values())
        rows.append([
            method, comp, comm, comm / (comm + comp),
            times[0], times[1], times[2], times[0] / best - 1.0,
        ])
    return rows


def bench_ablation_barnes_hut(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print()
    print(format_table(
        ["force", "comp s/it", "comm s/it", "comm frac",
         "FW0 s/it", "FW1 s/it", "FW2 s/it", "best gain"],
        rows,
        title="ABL-BH: O(N^2) vs O(N log N) force backend (16 procs, N=1000)",
    ))
    direct, bh = rows[0], rows[1]
    # Barnes-Hut cuts the computation phase substantially ...
    assert bh[1] < 0.7 * direct[1]
    # ... so the communication fraction grows well past one half.
    assert bh[3] > direct[3]
    assert bh[3] > 0.5
    # Direct mode: plenty of compute to overlap -> large gain.
    assert direct[7] > 0.30
    # BH mode: compute < wire time, the bus is the floor -> speculation
    # still helps, but its ceiling is the interconnect throughput.
    assert 0.0 < bh[7] < direct[7]
    # The BH iteration time can never drop below the per-iteration bus
    # occupancy (within overheads): comm s/it bounds the best time.
    assert min(bh[4], bh[5], bh[6]) > 0.9 * bh[2]
