"""ABL-ADAPT: runtime forward-window adaptation on the paper testbed.

The paper tunes FW offline; this ablation lets each rank retune it
online from observed waiting time and rejection rate (AIMD-style), and
compares against the static windows on the bursty-Ethernet N-body.
"""

from repro.core import run_program
from repro.apps import NBodyProgram
from repro.harness import format_table
from repro.nbody import uniform_cube
from repro.platforms import wustl_1994
from repro.policy import AimdWindow


def build(p=16, iterations=20):
    platform = wustl_1994(p=p, jitter_sigma=0.8, background_frames_per_s=24,
                          bursty_traffic=True, seed=1)
    system = uniform_cube(1000, seed=42, softening=0.1)
    prog = NBodyProgram(system, platform.capacities(), iterations=iterations,
                        dt=0.015, threshold=0.01)
    return prog, platform.cluster()


def run_comparison():
    rows = []
    for label, fw in (("static FW=0", 0), ("static FW=1", 1), ("static FW=2", 2)):
        prog, cluster = build()
        res = run_program(prog, cluster, fw=fw, cascade="none")
        rows.append([label, res.time_per_iteration, "-"])
    prog, cluster = build()
    # min_fw=1: communication always dominates on this platform, so the
    # controller should explore windows, not fall back to blocking.
    # Rejection thresholds use the driver's *block-level* rates, which
    # sit well above the particle-level 2%.
    res = run_program(
        prog, cluster, fw=1, cascade="none",
        window_policy=AimdWindow(epoch=4, min_fw=1, max_fw=3),
    )
    windows = res.final_windows()
    rows.append([
        "adaptive (start FW=1)",
        res.time_per_iteration,
        f"final FW in [{min(windows)}, {max(windows)}]",
    ])
    return rows


def bench_adaptive_window(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print()
    print(format_table(
        ["configuration", "time/iteration (s)", "windows"],
        rows,
        title="ABL-ADAPT: adaptive vs static forward windows (16 procs, N-body)",
    ))
    times = {r[0]: r[1] for r in rows}
    # Adaptive must be competitive with the best static window and far
    # better than blocking.
    best_static = min(times["static FW=1"], times["static FW=2"])
    assert times["adaptive (start FW=1)"] < 0.7 * times["static FW=0"]
    assert times["adaptive (start FW=1)"] < 1.15 * best_static
