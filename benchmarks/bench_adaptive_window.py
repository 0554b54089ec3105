"""ABL-ADAPT: runtime forward-window adaptation on the paper testbed.

The paper tunes FW offline; this ablation lets each rank retune it
online with :class:`~repro.policy.CostWindow`, which prices the windows
with Eq. 6 / Eq. 8 from the wait, latency, work and speculation
overhead it measured, and holds it to the static windows at every p of
Fig. 8, at Fig. 8's own T=20: starting from FW=1 and free to fall back
to blocking, the adaptive makespan must be within 2 % of the best fixed
window's.  The DES is deterministic, so the bound is exact.

One more row repeats the parameter-server straggler comparison (Wong,
PAPERS.md) on the same program: with one rank computing at half speed,
bulk-synchronous (FW=0) against bounded staleness (FW=1, 2) against
the policy, under the same bound.
"""

from repro.api import RunConfig, run
from repro.faults import FaultPlan, RankFault
from repro.harness import build_nbody, format_table
from repro.policy import CostWindow

PROCS = (2, 4, 8, 16)
STRAGGLER = FaultPlan(ranks=(RankFault(rank=1, slowdown=2.0),))


def makespans(p, plan=None):
    """Fixed FW 0 / 1 / 2 and adaptive (from FW=1, min_fw=0) virtual
    makespans, and the adaptive run's final windows."""
    reports = []
    for fw, policy in ((0, None), (1, None), (2, None),
                       (1, CostWindow(epoch=4, min_fw=0, max_fw=4))):
        program, cluster, cfg = build_nbody(p)
        reports.append(run(RunConfig(
            program, fw=fw, cascade=cfg["cascade"], seed=cfg["seed"],
            cluster=cluster, window_policy=policy, fault_plan=plan,
        )))
    return [r.wall_seconds for r in reports], reports[-1].final_windows()


def run_comparison():
    rows = []
    for label, p, plan in [(f"p={p}", p, None) for p in PROCS] + [
        ("p=16, rank 1 at half speed", 16, STRAGGLER)
    ]:
        times, windows = makespans(p, plan)
        rows.append([
            label, *times, 100.0 * (times[3] / min(times[:3]) - 1.0),
            f"[{min(windows)}, {max(windows)}]",
        ])
    return rows


def bench_adaptive_window(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print()
    print(format_table(
        ["configuration", "FW=0 (s)", "FW=1 (s)", "FW=2 (s)",
         "adaptive (s)", "vs best (%)", "final FW"],
        rows,
        title="ABL-ADAPT: adaptive vs static forward windows "
        "(N-body, fig8 platform, T=20, virtual makespan)",
    ))
    for label, fw0, fw1, fw2, adaptive, *_ in rows:
        assert adaptive <= 1.02 * min(fw0, fw1, fw2), label
