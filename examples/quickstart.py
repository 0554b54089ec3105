#!/usr/bin/env python
"""Quickstart: mask communication delays in an N-body simulation.

Runs the same 500-particle gravitational simulation twice on a
simulated 8-workstation cluster — once with the classical blocking
exchange (FW = 0) and once with speculative computation (FW = 1) — and
compares iteration times, exactly like the paper's headline experiment.

Run:  python examples/quickstart.py
"""

from repro import NBodyProgram, RunConfig, run, uniform_cube, wustl_1994


def main() -> None:
    # A heterogeneous 8-machine cluster on a shared Ethernet, calibrated
    # to the paper's testbed, with realistic cross-traffic.
    n_particles, iterations = 500, 10

    def fresh_program_and_cluster():
        platform = wustl_1994(
            p=8, jitter_sigma=0.8, background_frames_per_s=24,
            bursty_traffic=True, seed=1,
        )
        system = uniform_cube(n_particles, seed=0, softening=0.1)
        program = NBodyProgram(
            system,
            platform.capacities(),
            iterations=iterations,
            dt=0.015,
            threshold=0.01,  # the paper's theta
        )
        return program, platform.cluster()

    program, cluster = fresh_program_and_cluster()
    blocking = run(RunConfig(program, fw=0, cluster=cluster))

    program, cluster = fresh_program_and_cluster()
    speculative = run(RunConfig(program, fw=1, cluster=cluster))

    b0 = blocking.steady_breakdown()
    b1 = speculative.steady_breakdown()
    print(f"N-body, {n_particles} particles, 8 simulated workstations")
    print(f"{'':24s}{'blocking':>12s}{'speculative':>14s}")
    print(f"{'compute s/iter':24s}{b0['compute']:>12.3f}{b1['compute']:>14.3f}")
    print(f"{'waiting s/iter':24s}{b0['comm']:>12.3f}{b1['comm']:>14.3f}")
    print(f"{'spec+check s/iter':24s}{b0['spec'] + b0['check']:>12.3f}"
          f"{b1['spec'] + b1['check']:>14.3f}")
    print(f"{'total s/iter':24s}{b0.total:>12.3f}{b1.total:>14.3f}")
    gain = blocking.wall_seconds / speculative.wall_seconds - 1.0
    print(f"\nSpeculative computation is {gain:+.1%} faster "
          f"({100 * program.spec_stats.incorrect_fraction:.1f}% of speculations rejected)")


if __name__ == "__main__":
    main()
