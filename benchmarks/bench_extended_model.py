"""EXT-MODEL: the paper's future-work model, validated against the DES.

"Future work ... includes developing a more sophisticated performance
model that accounts for variations in computation and communication
times of processors and different forward and backward window sizes."

This bench runs the extended model's FW study under growing
communication variance and checks its qualitative predictions against
the discrete-event measurements of the Fig. 8 experiment family.
"""

from repro.harness import format_table
from repro.perfmodel import (
    ExtendedPerformanceModel,
    VariabilityParams,
    section4_params,
)


def run_study():
    params = section4_params(k=0.02)
    rows = []
    for comm_cv in (0.0, 0.5, 1.0, 2.0):
        model = ExtendedPerformanceModel(
            params,
            VariabilityParams(comm_cv=comm_cv, k1=0.05, bw_discount=0.4,
                              correction_fraction=0.5),
            seed=7,
        )
        times = {fw: 1000 * model.expected_iteration_time(16, fw, bw=2)
                 for fw in range(0, 4)}
        rows.append([comm_cv, times[0], times[1], times[2], times[3],
                     model.optimal_fw(16, bw=2, max_fw=4)])
    return rows


def bench_extended_model(benchmark):
    rows = benchmark.pedantic(run_study, rounds=1, iterations=1)
    print()
    print(format_table(
        ["comm cv", "FW=0 (ms)", "FW=1 (ms)", "FW=2 (ms)", "FW=3 (ms)", "best FW"],
        rows,
        title="EXT-MODEL: expected iteration time vs forward window (p=16)",
    ))
    # Deterministic network: the latency outlasts speculation + compute
    # on the bottleneck rank and the check cannot overlap it (Eq. 8), so
    # FW=1 leaves some exposed and FW=2 hides it; deeper windows idle.
    calm = rows[0]
    assert calm[3] < calm[2] < calm[1]
    assert abs(calm[4] - calm[3]) / calm[3] < 0.05
    # Heavy variance: FW=2 strictly better than FW=1; best FW >= 2.
    wild = rows[-1]
    assert wild[3] < wild[2]
    assert wild[5] >= 2
    # The optimal window is non-decreasing in the variance.
    bests = [r[5] for r in rows]
    assert all(a <= b for a, b in zip(bests, bests[1:]))
