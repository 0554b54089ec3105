"""ABL-REAL: wall-clock validation on real OS processes.

The simulator's headline effect — speculation masking message latency —
re-measured with actual multiprocessing workers and injected pipe
latency: a small N-body on 2 processes, latency swept around the
per-iteration compute time.
"""

import numpy as np

from repro.api import RunConfig, run
from repro.harness import format_table
from repro.nbody import uniform_cube
from repro.apps import NBodyProgram


def run_sweep():
    rows = []
    system = uniform_cube(160, seed=7, softening=0.1)
    # ~160^2 pair forces per rank -> fraction of a millisecond; scale
    # the injected latency around the measured compute time.
    probe = NBodyProgram(system, [1.0, 1.0], iterations=2, dt=0.01, threshold=0.0)
    base = run(RunConfig(probe, backend="mp", fw=0, latency=0.0, timeout=120))
    compute_s = base.timings["compute"] / probe.iterations

    for factor in (0.5, 1.0, 2.0):
        latency = max(compute_s * factor, 0.002)
        times = {}
        for fw in (0, 1):
            prog = NBodyProgram(system, [1.0, 1.0], iterations=10, dt=0.01, threshold=0.01)
            res = run(RunConfig(prog, backend="mp", fw=fw, latency=latency, seed=3,
                                timeout=120))
            times[fw] = res.wall_seconds
        rows.append([
            1000.0 * latency,
            times[0],
            times[1],
            times[0] / times[1],
        ])
    return rows


def bench_real_multiprocessing(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print()
    print(format_table(
        ["latency (ms)", "FW=0 wall (s)", "FW=1 wall (s)", "speedup"],
        rows,
        title="ABL-REAL: speculation on real processes (N-body, p=2)",
    ))
    # Speculation must win at every injected latency >= compute time.
    assert rows[1][3] > 1.0
    assert rows[2][3] > 1.0
    # And the benefit grows with the latency.
    assert rows[2][3] >= rows[0][3] - 0.1
