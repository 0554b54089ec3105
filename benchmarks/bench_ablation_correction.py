"""ABL-CORR: incremental correction vs full recomputation (N-body).

DESIGN.md design choice 4: the N-body app implements a true
incremental correction (subtract speculated-pair forces, add
actual-pair forces).  This ablation quantifies the saving against the
naive full recomputation at a tight threshold where rejections are
frequent.
"""

from repro.apps import NBodyProgram
from repro.core import run_program
from repro.harness import format_table
from repro.nbody import uniform_cube
from repro.platforms import wustl_1994


def run_ablation():
    rows = []
    for incremental in (True, False):
        platform = wustl_1994(p=8, jitter_sigma=0.8,
                              background_frames_per_s=24, bursty_traffic=True, seed=1)
        system = uniform_cube(400, seed=42, softening=0.1)
        prog = NBodyProgram(
            system, platform.capacities(), iterations=10, dt=0.02,
            threshold=0.002, incremental_correction=incremental,
        )
        result = run_program(prog, platform.cluster(), fw=1, cascade="none")
        b = result.steady_breakdown()
        rows.append([
            "incremental" if incremental else "full recompute",
            b["correct"],
            result.wall_seconds,
            100.0 * prog.spec_stats.incorrect_fraction,
        ])
    return rows


def bench_ablation_correction(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print()
    print(format_table(
        ["correction policy", "correct s/iter", "makespan (s)", "rejected (%)"],
        rows,
        title="ABL-CORR: correction policy (N-body, tight theta)",
    ))
    inc, full = rows[0], rows[1]
    # Same rejection rates (same physics), cheaper correction phase.
    assert abs(inc[3] - full[3]) < 2.0
    assert inc[1] < full[1]
    assert inc[2] < full[2]
