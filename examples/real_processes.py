#!/usr/bin/env python
"""Speculation on real OS processes (multiprocessing backend).

The simulator's headline effect, re-measured in wall-clock time: a
small N-body on two worker processes exchanging numpy blocks over
pipes, with an injected per-message latency comparable to the real
per-iteration compute time.

Run:  python examples/real_processes.py
"""

import numpy as np

from repro import MPRunner, NBodyProgram, uniform_cube


def main() -> None:
    n, iterations = 400, 10
    system = uniform_cube(n, seed=7, softening=0.1)

    # Measure the native compute time first, then inject a matching delay.
    probe = NBodyProgram(system, [1.0, 1.0], iterations=2, dt=0.01, threshold=0.0)
    base = MPRunner(probe, fw=0, latency=0.0).run()
    compute_per_iter = base.timings["compute"] / probe.iterations
    latency = max(compute_per_iter, 0.001)
    print(f"{n}-particle N-body on 2 OS processes")
    print(f"measured compute/iteration: {1000 * compute_per_iter:.1f} ms; "
          f"injecting {1000 * latency:.1f} ms message latency\n")

    results = {}
    for fw in (0, 1):
        program = NBodyProgram(system, [1.0, 1.0], iterations=iterations,
                               dt=0.01, threshold=0.01)
        results[fw] = MPRunner(program, fw=fw, latency=latency, seed=3).run()
        label = "blocking (FW=0)" if fw == 0 else "speculative (FW=1)"
        res = results[fw]
        print(f"{label:20s}: wall {res.wall_seconds:.3f}s  "
              f"waiting {res.timings['comm']:.3f}s  "
              f"rejected {100 * res.rejection_rate:.1f}%")

    # Physics check: both runs agree with each other within theta-bounded
    # speculation error.
    p0 = np.vstack([results[0].results[r][:, :3] for r in range(2)])
    p1 = np.vstack([results[1].results[r][:, :3] for r in range(2)])
    print(f"\nmax position deviation between the two runs: "
          f"{float(np.max(np.abs(p0 - p1))):.2e}")
    print(f"speculation made the run "
          f"{results[0].wall_seconds / results[1].wall_seconds - 1:+.0%} faster")


if __name__ == "__main__":
    main()
