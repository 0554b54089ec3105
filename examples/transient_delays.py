#!/usr/bin/env python
"""Forward windows under transient delays (the Fig. 4 scenario).

A two-processor run where the first P1→P2 message is held up in
transit for several compute-times.  FW = 1 can only run one iteration
ahead, so it absorbs part of the transient; FW = 2 absorbs more.  The
ASCII timelines make the pipelining visible.

Run:  python examples/transient_delays.py
"""

from repro.core import run_program
from repro.harness.toys import ConstantProgram
from repro.netsim.latency import Spike
from repro.platforms import two_processor_demo
from repro.trace import render_gantt


def main() -> None:
    compute_s, comm_s, spike_s = 1.0, 0.4, 2.5
    print(
        f"Two processors; compute {compute_s:.1f}s/iteration, normal "
        f"delay {comm_s:.1f}s,\none transient of +{spike_s:.1f}s on P1->P2's "
        f"first message.\n"
    )
    for fw in (0, 1, 2):
        platform = two_processor_demo(
            compute_seconds=compute_s,
            comm_seconds=comm_s,
            spikes=[Spike(extra=spike_s, t_start=0.5, t_end=1.5, src=0, dst=1)],
        )
        program = ConstantProgram(nprocs=2, iterations=6)
        result = run_program(program, platform.cluster(), fw=fw)
        print(f"FW = {fw}: makespan {result.wall_seconds:.2f}s")
        print(render_gantt(result.traces, width=76))


if __name__ == "__main__":
    main()
