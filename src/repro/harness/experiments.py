"""The paper's evaluation artifacts as runnable experiments.

Every public function reproduces one table or figure:

========  =====================================================
FIG2      two-processor timelines: blocking vs good/bad speculation
FIG4      forward window under a transient delay (FW = 0/1/2)
FIG5      model speedup vs p, with and without speculation
FIG6      model speedup vs recomputation fraction k (8 processors)
FIG8      measured N-body speedup vs p for FW = 0/1/2
TAB2      per-phase time per iteration (16 procs, 1000 particles)
TAB3      threshold θ vs incorrect speculations and force error
FIG9      model vs measured speedups, with % deviation
========  =====================================================

All N-body experiments share the :data:`HEADLINE` configuration: the
calibrated WUSTL platform with bursty Ethernet cross-traffic,
N = 1000 particles, Δt tuned so θ = 0.01 rejects ≈ 2 % of
speculations — matching the paper's operating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.apps import NBodyProgram
from repro.core import RunReport, run_program
from repro.core.results import speedup_max
from repro.harness.tables import format_table
from repro.harness.toys import ConstantProgram, JumpyProgram
from repro.nbody import uniform_cube
from repro.netsim.latency import Spike
from repro.perfmodel import (
    ModelParams,
    PerformanceModel,
    calibrate_tcomm,
    model_vs_measured,
    section4_params,
)
from repro.platforms import two_processor_demo, wustl_1994
from repro.trace import EventLog, render_gantt
from repro.vm import Cluster

#: Shared configuration for the measured N-body experiments.
HEADLINE: dict[str, Any] = {
    "n_particles": 1000,
    "dt": 0.015,
    "threshold": 0.01,
    "iterations": 20,
    "softening": 0.1,
    "jitter_sigma": 0.8,
    "background_frames_per_s": 24.0,
    "bursty_traffic": True,
    "seed": 1,
    "ic_seed": 42,
    "cascade": "none",  # the paper's local-correction semantics
}


@dataclass
class ExperimentResult:
    """One reproduced artifact: data plus its rendered table."""

    experiment_id: str
    headers: list[str]
    rows: list[list[Any]]
    text: str
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serialisable form: id, headers, rows (no heavy extras)."""
        def clean(v):
            if isinstance(v, (np.floating,)):
                return float(v)
            if isinstance(v, (np.integer,)):
                return int(v)
            return v

        return {
            "experiment_id": self.experiment_id,
            "headers": list(self.headers),
            "rows": [[clean(v) for v in row] for row in self.rows],
        }

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


# --------------------------------------------------------------------------
# Shared N-body builder and runner
# --------------------------------------------------------------------------
def build_nbody(
    p: int,
    iterations: Optional[int] = None,
    n_particles: Optional[int] = None,
    threshold: Optional[float] = None,
    record_force_errors: bool = False,
    config: Optional[dict[str, Any]] = None,
    simulated: bool = True,
) -> tuple[NBodyProgram, Optional[Cluster], dict[str, Any]]:
    """The :data:`HEADLINE` N-body program, its cluster and the merged config.

    ``simulated=True`` decomposes over the calibrated WUSTL platform's
    capacities and returns its DES cluster; ``simulated=False`` (the
    loopback and mp backends, which have no platform model) uses
    uniform capacities and returns ``None`` for the cluster.  The
    initial conditions are the same either way.
    """
    cfg = dict(HEADLINE)
    if config:
        cfg.update(config)
    capacities, platform = [1.0] * p, None
    if simulated:
        platform = wustl_1994(
            p=p,
            jitter_sigma=cfg["jitter_sigma"],
            background_frames_per_s=cfg["background_frames_per_s"],
            bursty_traffic=cfg["bursty_traffic"],
            seed=cfg["seed"],
        )
        capacities = platform.capacities()
    system = uniform_cube(
        n_particles if n_particles is not None else cfg["n_particles"],
        seed=cfg["ic_seed"],
        softening=cfg["softening"],
    )
    program = NBodyProgram(
        system,
        capacities,
        iterations=iterations if iterations is not None else cfg["iterations"],
        dt=cfg["dt"],
        threshold=threshold if threshold is not None else cfg["threshold"],
        record_force_errors=record_force_errors,
    )
    return program, platform.cluster() if platform is not None else None, cfg


def run_nbody(
    p: int,
    fw: int,
    iterations: Optional[int] = None,
    n_particles: Optional[int] = None,
    threshold: Optional[float] = None,
    record_force_errors: bool = False,
    config: Optional[dict[str, Any]] = None,
    event_log: Optional[EventLog] = None,
    window_policy: Optional[Any] = None,
) -> tuple[NBodyProgram, RunReport]:
    """One measured N-body run on the calibrated platform.

    The harness primitive the paper's experiments drive; ``repro
    nbody`` builds the same program with :func:`build_nbody` and runs
    it through :func:`repro.api.run` on any backend.

    Returns the program (whose ``spec_stats`` carry particle-level
    counters) and the :class:`~repro.core.RunReport`.  Pass an
    ``event_log`` to record every protocol step (send/recv/speculate/
    verify/correct) for ``repro analyze --trace`` replay, and a
    ``window_policy`` (e.g. :class:`~repro.policy.AimdWindow`) to let
    each rank retune its forward window at runtime — ``fw`` is then
    the initial window and ``RunReport.window_history`` records the
    per-rank trajectories.
    """
    program, cluster, cfg = build_nbody(
        p, iterations, n_particles, threshold, record_force_errors, config
    )
    if event_log is not None:
        cluster.event_log = event_log
    result = run_program(
        program, cluster, fw=fw, cascade=cfg["cascade"],
        window_policy=window_policy,
    )
    return program, result


# --------------------------------------------------------------------------
# FIG2 — two-processor timelines
# --------------------------------------------------------------------------
def fig2_timelines(
    iterations: int = 3,
    compute_seconds: float = 1.0,
    comm_seconds: float = 1.5,
    width: int = 72,
) -> ExperimentResult:
    """Fig. 2: (a) no speculation, (b) all speculations good, (c) all bad.

    Reports the three makespans and renders each scenario's timeline.
    The paper's qualitative result: T_spec_good < T_no_spec <
    T_spec_nogood.
    """
    scenarios = []
    charts = {}

    def run(label: str, program_cls, fw: int):
        platform = two_processor_demo(
            compute_seconds=compute_seconds, comm_seconds=comm_seconds
        )
        program = program_cls(nprocs=2, iterations=iterations)
        result = run_program(program, platform.cluster(), fw=fw)
        charts[label] = render_gantt(result.traces, width=width)
        scenarios.append((label, result.wall_seconds))
        return result

    run("(a) no speculation (FW=0)", ConstantProgram, fw=0)
    run("(b) speculation, all good", ConstantProgram, fw=1)
    run("(c) speculation, all bad", JumpyProgram, fw=1)

    rows = [[label, t, t / scenarios[0][1]] for label, t in scenarios]
    text = format_table(
        ["scenario", "makespan (s)", "vs no-spec"],
        rows,
        title=f"FIG2: 2 processors, {iterations} iterations, "
        f"compute {compute_seconds:.2g}s, comm {comm_seconds:.2g}s",
    )
    text += "\n" + "\n".join(f"{label}\n{charts[label]}" for label, _ in scenarios)
    return ExperimentResult(
        "FIG2",
        ["scenario", "makespan", "vs_no_spec"],
        rows,
        text,
        extra={"charts": charts},
    )


# --------------------------------------------------------------------------
# FIG4 — forward window under a transient delay
# --------------------------------------------------------------------------
def fig4_forward_window(
    iterations: int = 6,
    compute_seconds: float = 1.0,
    comm_seconds: float = 0.4,
    spike_extra: float = 2.5,
    width: int = 72,
) -> ExperimentResult:
    """Fig. 4: one delayed P1→P2 message; FW = 0, 1, 2 compared.

    The transient exceeds one iteration's compute time, so FW = 1 only
    partially masks it and FW = 2 recovers more.
    """
    rows = []
    charts = {}
    for fw in (0, 1, 2):
        platform = two_processor_demo(
            compute_seconds=compute_seconds,
            comm_seconds=comm_seconds,
            # The first broadcast leaves at the end of iteration 0's
            # compute phase (t = compute_seconds); the spike window
            # brackets exactly that send and no later one.
            spikes=[
                Spike(
                    extra=spike_extra,
                    t_start=0.5 * compute_seconds,
                    t_end=1.5 * compute_seconds,
                    src=0,
                    dst=1,
                )
            ],
        )
        program = ConstantProgram(nprocs=2, iterations=iterations)
        result = run_program(program, platform.cluster(), fw=fw)
        rows.append([fw, result.wall_seconds])
        charts[fw] = render_gantt(result.traces, width=width)
    base = rows[0][1]
    rows = [[fw, t, t / base] for fw, t in rows]
    text = format_table(
        ["FW", "makespan (s)", "vs FW=0"],
        rows,
        title=f"FIG4: transient delay of {spike_extra:.2g}s on P1->P2's first message",
    )
    text += "\n" + "\n".join(f"FW={fw}\n{charts[fw]}" for fw, _, _ in rows)
    return ExperimentResult("FIG4", ["fw", "makespan", "vs_fw0"], rows, text, extra={"charts": charts})


# --------------------------------------------------------------------------
# FIG5 — model speedup vs p
# --------------------------------------------------------------------------
def fig5_model_speedup(k: float = 0.02, allocation: str = "total") -> ExperimentResult:
    """Fig. 5: Section-4 model speedups vs processor count (k = 2 %)."""
    model = PerformanceModel(section4_params(k=k, allocation=allocation))
    curves = model.speedup_curves()
    rows = [
        [int(p), ns, sp, mx]
        for p, ns, sp, mx in zip(
            curves["p"], curves["no_speculation"], curves["speculation"], curves["maximum"]
        )
    ]
    text = format_table(
        ["p", "no speculation", "speculation", "maximum"],
        rows,
        title=f"FIG5: model speedup vs p (k={k:.0%}, allocation={allocation})",
    )
    return ExperimentResult("FIG5", ["p", "no_spec", "spec", "max"], rows, text, extra=curves)


# --------------------------------------------------------------------------
# FIG6 — model sensitivity to speculation error
# --------------------------------------------------------------------------
def fig6_error_sensitivity(
    p: int = 8,
    k_values: Sequence[float] = tuple(np.linspace(0.0, 0.30, 16)),
) -> ExperimentResult:
    """Fig. 6: 8-processor model speedup as the recomputation % grows."""
    model = PerformanceModel(section4_params())
    data = model.error_sensitivity(p, k_values)
    crossover = model.crossover_k(p)
    rows = [
        [100.0 * k, sp, ns]
        for k, sp, ns in zip(data["k"], data["speculation"], data["no_speculation"])
    ]
    text = format_table(
        ["k (%)", "speculation", "no speculation"],
        rows,
        title=f"FIG6: model speedup on {p} processors vs recomputation %"
        f" (break-even at k = {100 * crossover:.1f}%)",
    )
    return ExperimentResult(
        "FIG6",
        ["k_pct", "spec", "no_spec"],
        rows,
        text,
        extra={"crossover_k": crossover, **data},
    )


# --------------------------------------------------------------------------
# FIG8 — measured N-body speedup vs p
# --------------------------------------------------------------------------
def fig8_nbody_speedup(
    ps: Sequence[int] = (1, 2, 4, 6, 8, 10, 12, 14, 16),
    fws: Sequence[int] = (0, 1, 2),
    iterations: Optional[int] = None,
    n_particles: Optional[int] = None,
    config: Optional[dict[str, Any]] = None,
) -> ExperimentResult:
    """Fig. 8: measured N-body speedups vs p for FW = 0, 1, 2.

    Speedups are relative to the measured single-processor run on P1;
    the "maximum" column is ΣM_i / M_1 (paper's attainable bound).
    """
    results: dict[tuple[int, int], RunReport] = {}
    _, base = run_nbody(1, 0, iterations=iterations, n_particles=n_particles, config=config)
    t1 = base.time_per_iteration
    results[(1, 0)] = base

    rows = []
    capacities16 = wustl_1994(p=16).capacities()
    for p in ps:
        row: list[Any] = [int(p)]
        for fw in fws:
            if p == 1:
                row.append(1.0)
                continue
            _, res = run_nbody(
                p, fw, iterations=iterations, n_particles=n_particles, config=config
            )
            results[(p, fw)] = res
            row.append(t1 / res.time_per_iteration)
        row.append(speedup_max(capacities16[:p]))
        rows.append(row)

    headers = ["p"] + [f"FW={fw}" for fw in fws] + ["maximum"]
    text = format_table(
        headers,
        rows,
        title="FIG8: measured N-body speedup vs processors (theta=0.01)",
    )
    gains = {}
    if 0 in fws:
        for fw in fws:
            if fw == 0:
                continue
            last = rows[-1]
            gains[fw] = last[1 + list(fws).index(fw)] / last[1 + list(fws).index(0)] - 1.0
        text += "\nGain over no-speculation at p=%d: %s\n" % (
            rows[-1][0],
            ", ".join(f"FW={fw}: {g:+.1%}" for fw, g in gains.items()),
        )
    return ExperimentResult(
        "FIG8", headers, rows, text, extra={"results": results, "gains": gains, "t1": t1}
    )


# --------------------------------------------------------------------------
# TAB2 — per-phase times
# --------------------------------------------------------------------------
def table2_phase_times(
    p: int = 16,
    fws: Sequence[int] = (0, 1, 2),
    iterations: Optional[int] = None,
    n_particles: Optional[int] = None,
    config: Optional[dict[str, Any]] = None,
) -> ExperimentResult:
    """Table 2: steady-state per-iteration phase times for FW = 0/1/2.

    Paper (16 processors, 1000 particles)::

        FW  comp  comm  spec  check  total
        0   5.83  4.73  0     0      10.56
        1   5.85  1.43  0.2   1.02    8.52
        2   5.82  0.22  0.3   1.5     7.79
    """
    rows = []
    extra = {}
    for fw in fws:
        prog, res = run_nbody(
            p, fw, iterations=iterations, n_particles=n_particles, config=config
        )
        b = res.steady_breakdown()
        rows.append(
            [
                fw,
                b["compute"],
                b["comm"],
                b["spec"],
                b["check"],
                b["correct"],
                b.total,
            ]
        )
        extra[fw] = {"result": res, "rejection": prog.spec_stats.incorrect_fraction}
    text = format_table(
        ["FW", "computation", "communication", "speculation", "check", "correction", "total"],
        rows,
        title=f"TAB2: per-iteration phase times (s), {p} processors, "
        f"{(config or HEADLINE).get('n_particles', HEADLINE['n_particles']) if n_particles is None else n_particles} particles",
    )
    return ExperimentResult(
        "TAB2",
        ["fw", "comp", "comm", "spec", "check", "correct", "total"],
        rows,
        text,
        extra=extra,
    )


# --------------------------------------------------------------------------
# TAB3 — threshold sweep
# --------------------------------------------------------------------------
def table3_threshold_sweep(
    thetas: Sequence[float] = (0.1, 0.05, 0.01, 0.005, 0.001),
    p: int = 16,
    iterations: Optional[int] = None,
    n_particles: Optional[int] = None,
    config: Optional[dict[str, Any]] = None,
) -> ExperimentResult:
    """Table 3: θ vs incorrect-speculation % and max accepted force error.

    Paper::

        theta   incorrect   max force error
        0.1     <1%         20%
        0.05    <1%         10%
        0.01    2%          2%
        0.005   5%          1%
        0.001   20%         0.2%
    """
    rows = []
    for theta in thetas:
        prog, _ = run_nbody(
            p,
            1,
            iterations=iterations,
            n_particles=n_particles,
            threshold=theta,
            record_force_errors=True,
            config=config,
        )
        rows.append(
            [
                theta,
                100.0 * prog.spec_stats.incorrect_fraction,
                100.0 * prog.spec_stats.max_accepted_force_error,
            ]
        )
    text = format_table(
        ["theta", "incorrect speculations (%)", "max force error (%)"],
        rows,
        title="TAB3: effect of the error bound theta (FW=1)",
        floatfmt=".3g",
    )
    return ExperimentResult("TAB3", ["theta", "incorrect_pct", "force_err_pct"], rows, text)


# --------------------------------------------------------------------------
# FIG9 — model vs measured
# --------------------------------------------------------------------------
def fig9_model_vs_measured(
    ps: Sequence[int] = (1, 2, 4, 8, 12, 16),
    iterations: Optional[int] = None,
    n_particles: Optional[int] = None,
    config: Optional[dict[str, Any]] = None,
) -> ExperimentResult:
    """Fig. 9: parameterise the Section-4 model from the N-body runs and
    compare predicted vs measured speedups.

    The model's t_comm(p) is least-squares fitted from the measured
    blocking (FW = 0) runs; operation counts come from the application
    cost model; k is the measured correction overhead.
    """
    cfg = dict(HEADLINE)
    if config:
        cfg.update(config)
    n = n_particles if n_particles is not None else cfg["n_particles"]

    measured_nospec: dict[int, RunReport] = {}
    measured_spec: dict[int, RunReport] = {}
    for p in ps:
        _, r0 = run_nbody(p, 0, iterations=iterations, n_particles=n, config=config)
        measured_nospec[p] = r0
        if p == 1:
            measured_spec[p] = r0
        else:
            _, r1 = run_nbody(p, 1, iterations=iterations, n_particles=n, config=config)
            measured_spec[p] = r1

    t_comm = calibrate_tcomm(measured_nospec)
    k_measured = float(
        np.mean([measured_spec[p].measured_k() for p in ps if p > 1])
    )
    capacities = tuple(wustl_1994(p=16).capacities())
    params = ModelParams(
        n=n,
        capacities=capacities[: max(ps)],
        f_comp=70.0 * n + 12.0,
        f_spec=12.0,
        f_check=24.0,
        t_comm=t_comm,
        k=min(k_measured, 1.0),
    )
    data = model_vs_measured(params, measured_nospec, measured_spec)
    rows = [
        [
            int(data["p"][i]),
            data["measured_no_speculation"][i],
            data["model_no_speculation"][i],
            data["deviation_no_speculation_pct"][i],
            data["measured_speculation"][i],
            data["model_speculation"][i],
            data["deviation_speculation_pct"][i],
        ]
        for i in range(len(data["p"]))
    ]
    text = format_table(
        [
            "p",
            "measured (no spec)",
            "model (no spec)",
            "dev %",
            "measured (spec)",
            "model (spec)",
            "dev %",
        ],
        rows,
        title=f"FIG9: model vs measured speedups (fitted t_comm: {t_comm}, k={k_measured:.3f})",
    )
    return ExperimentResult(
        "FIG9",
        ["p", "meas_ns", "model_ns", "dev_ns", "meas_sp", "model_sp", "dev_sp"],
        rows,
        text,
        extra={"params": params, "t_comm": t_comm, "k": k_measured, "data": data},
    )
