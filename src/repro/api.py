"""One run API across the three backends.

Each backend has one primitive with its own native result:
:func:`repro.core.driver.run_program` (DES, returns
:class:`~repro.core.results.RunResult` with phase traces),
:func:`repro.engine.loopback.run_loopback` (returns a 3-tuple
including the runner) and :class:`repro.parallel.MPRunner` (returns
:class:`~repro.parallel.runner.MPRunResult` with per-worker reports).
This module puts them behind one frozen configuration value and one
report type::

    from repro.api import RunConfig, run

    report = run(RunConfig(program, backend="mp", fw=2, latency=0.05))
    report.results[0]          # rank 0's final block
    report.timings["compute"]  # per-phase cost, max over ranks
    report.stats[0]            # rank 0's SpecStats, on every backend
    report.window_history[0]   # rank 0's (iteration, fw) trajectory

The same ``RunConfig`` — including an optional
:class:`~repro.faults.FaultPlan` — runs unchanged on ``"des"``
(virtual time), ``"loopback"`` (deterministic in-process scheduler)
and ``"mp"`` (real OS processes over pipes); only the clock the
numbers are measured in differs.  :func:`run` is the one way the CLI
and the benchmark reach a backend; the three primitives are what it
dispatches to, and what to call directly for the backend-native result
(``RunReport.raw`` carries it too) — the paper experiments in
:mod:`repro.harness`, for instance, read ``RunResult`` phase traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.driver import SpeculativeDriver
from repro.core.program import SyncIterativeProgram
from repro.core.results import SpecStats, fleet_rejection_rate
from repro.engine.loopback import run_loopback
from repro.faults import FaultPlan, merge_summaries
from repro.netsim.latency import ConstantLatency, StochasticLatency
from repro.netsim.network import DelayNetwork
from repro.policy import WindowPolicy
from repro.trace.events import EventLog
from repro.vm import Cluster, uniform_specs

#: Backends :func:`run` dispatches over.
BACKENDS = ("des", "loopback", "mp")


@dataclass(frozen=True)
class RunConfig:
    """Everything one protocol run needs, as a single frozen value.

    Parameters
    ----------
    program:
        The application (any :class:`~repro.core.program.SyncIterativeProgram`).
        For the mp backend it must be picklable (all bundled apps are).
    backend:
        ``"des"`` (virtual-time simulator), ``"loopback"``
        (deterministic in-process scheduler) or ``"mp"`` (real OS
        processes over pipes).
    p:
        Optional cross-check; must equal ``program.nprocs`` when set.
        The program owns its decomposition, so this exists purely to
        catch configuration drift at validation time.
    fw:
        Forward window: 0 (blocking) or any depth >= 1 (speculative).
    bw:
        Backward window: how many verified iterations each rank
        retains for checking and correction (the engine's history
        cap).  None (default) keeps the engine's derived default.
    cascade:
        ``"recompute"`` or ``"none"`` — see
        :class:`~repro.core.driver.SpeculativeDriver`.
    window_policy:
        Optional :class:`~repro.policy.WindowPolicy` template; each
        rank spawns a private copy and retunes its FW at runtime
        (``fw`` is then the initial window).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`; the plan's seeded
        faults inject identically on every backend, and the report's
        :attr:`RunReport.fault_summary` carries the recovery receipt.
    record_trace:
        Record protocol trace events; the report's ``event_log`` is
        then ready for ``repro analyze --trace`` replay.
    sanitize:
        Arm the runtime protocol sanitizer; None (default) defers to
        the ``REPRO_SANITIZE`` environment variable.
    seed:
        Seeds the stochastic parts of the transport (DES jitter
        streams, mp per-worker jitter).  Fault seeding lives on the
        plan (``fault_plan.seed``), not here.
    latency:
        One-way message delay: virtual seconds on ``"des"`` (ignored
        when an explicit ``cluster`` is supplied), wall seconds on
        ``"mp"``.  Must be 0 on ``"loopback"``, which has no clock.
    jitter:
        Log-normal sigma multiplying ``latency`` per message (des/mp
        only, same rules as ``latency``).
    cluster:
        DES only: an explicit :class:`~repro.vm.Cluster` (e.g. from
        :func:`repro.platforms.wustl_1994`).  None (default) builds a
        uniform cluster with a constant-latency network from
        ``latency``/``jitter``.
    timeout:
        mp only: parent-side wall-clock budget for the whole run.
    """

    program: SyncIterativeProgram
    backend: str = "des"
    p: Optional[int] = None
    fw: int = 1
    bw: Optional[int] = None
    cascade: str = "recompute"
    window_policy: Optional[WindowPolicy] = None
    fault_plan: Optional[FaultPlan] = None
    record_trace: bool = False
    sanitize: Optional[bool] = None
    seed: int = 0
    latency: float = 0.0
    jitter: float = 0.0
    cluster: Optional[Cluster] = None
    timeout: float = 300.0

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        nprocs = getattr(self.program, "nprocs", None)
        if self.p is not None and self.p != nprocs:
            raise ValueError(
                f"p={self.p} but program.nprocs={nprocs}; the program owns "
                "its decomposition — rebuild it for a different p"
            )
        if self.fw < 0:
            raise ValueError("fw must be >= 0")
        if self.bw is not None and self.bw < 1:
            raise ValueError("bw (the history cap) must be >= 1")
        if self.latency < 0 or self.jitter < 0:
            raise ValueError("latency and jitter must be >= 0")
        if self.backend == "loopback" and (self.latency or self.jitter):
            raise ValueError(
                "the loopback backend has no clock; latency/jitter "
                "require backend='des' or backend='mp'"
            )
        if self.cluster is not None and self.backend != "des":
            raise ValueError("cluster is a DES-only knob")
        if self.cluster is not None and (self.latency or self.jitter):
            raise ValueError(
                "latency/jitter and an explicit cluster are mutually "
                "exclusive on DES — the cluster's network already "
                "defines the delays"
            )


@dataclass
class RunReport:
    """What one run produced, shaped identically on every backend.

    ``wall_seconds`` is measured in the backend's own clock: virtual
    seconds (DES makespan), scheduler rounds (loopback) or real wall
    seconds (mp).  ``timings`` uses the same clock per phase (ops on
    loopback, where cost is counted rather than timed), aggregated as
    the max over ranks.  ``stats`` is one
    :class:`~repro.core.results.SpecStats` per rank on every backend;
    ``fault_summary`` is :func:`~repro.faults.merge_summaries` over the
    ranks' injector receipts (None without a fault plan).  ``raw``
    keeps the backend-native result for anything the common shape does
    not cover.
    """

    backend: str
    results: Dict[int, Any]
    wall_seconds: float
    timings: Dict[str, float]
    window_history: Dict[int, List[Tuple[int, int]]]
    stats: List[SpecStats]
    fault_summary: Optional[Dict[str, Any]] = None
    event_log: Optional[EventLog] = None
    raw: Any = field(default=None, repr=False)

    @property
    def rejection_rate(self) -> float:
        """Fleet-wide fraction of checked speculations rejected."""
        return fleet_rejection_rate(self.stats)


def run(config: RunConfig) -> RunReport:
    """Execute ``config`` on its backend; one report shape for all three.

    The backends differ only in how a run is started and where its
    clock totals come from (the ``_start_*`` functions below); the
    report itself is assembled once, here.
    """
    log = EventLog() if config.record_trace else None
    knobs = dict(
        fw=config.fw, cascade=config.cascade, sanitize=config.sanitize,
        window_policy=config.window_policy, fault_plan=config.fault_plan,
        hist_cap=config.bw,
    )
    start = {"des": _start_des, "loopback": _start_loopback, "mp": _start_mp}
    measured, receipts = start[config.backend](config, log, knobs)
    return RunReport(
        backend=config.backend,
        fault_summary=(
            merge_summaries(receipts) if config.fault_plan is not None else None
        ),
        event_log=log,
        **measured,
    )


# ---------------------------------------------------------------- backends
# Each ``_start_*`` runs ``config`` on its backend with the protocol
# ``knobs`` every primitive takes, tracing into ``log`` when one is
# given, and returns the measured RunReport fields (in the backend's
# own clock) plus the ranks' FaultSummary receipts.
def _default_cluster(config: RunConfig) -> Cluster:
    """Uniform DES cluster with a constant(+jitter) latency network."""
    latency = ConstantLatency(config.latency)
    if config.jitter > 0:
        latency = StochasticLatency(latency, sigma=config.jitter,
                                    seed=config.seed)
    return Cluster(
        uniform_specs(config.program.nprocs),
        network_factory=lambda env: DelayNetwork(env, latency),
    )


def _start_des(config: RunConfig, log: Optional[EventLog], knobs: dict) -> tuple:
    cluster = config.cluster if config.cluster is not None else _default_cluster(config)
    if log is not None:
        cluster.event_log = log
    driver = SpeculativeDriver(config.program, cluster, **knobs)
    result = driver.run()
    measured = dict(
        results=result.final_blocks,
        wall_seconds=result.makespan,
        timings=dict(result.breakdown().totals),
        window_history=dict(enumerate(result.window_history)),
        stats=result.stats,
        raw=result,
    )
    # The driver stores bound summary methods (the injectors fill in
    # as the run executes); materialise them now.
    return measured, [fn() for fn in driver.fault_summaries]


def _start_loopback(config: RunConfig, log: Optional[EventLog], knobs: dict) -> tuple:
    finals, stats, runner = run_loopback(config.program, event_log=log, **knobs)
    timings: Dict[str, float] = {}
    for tally in runner.phase_ops.values():
        for phase, ops in tally.items():
            timings[phase] = max(timings.get(phase, 0.0), ops)
    measured = dict(
        results=finals,
        wall_seconds=float(runner.rounds),
        timings=timings,
        window_history=runner.window_history,
        stats=stats,
        raw=runner,
    )
    if config.fault_plan is None:
        return measured, []
    return measured, [e.injector.summary() for e in runner.engines.values()]


def _start_mp(config: RunConfig, log: Optional[EventLog], knobs: dict) -> tuple:
    from repro.parallel import MPRunner  # deferred: spawns processes

    runner = MPRunner(
        config.program, latency=config.latency, jitter=config.jitter,
        seed=config.seed, record_events=log is not None, **knobs,
    )
    result = runner.run(timeout=config.timeout)
    if log is not None:
        log.extend(result.event_log())
    phases = sorted({p for r in result.reports for p in r.phase_seconds})
    measured = dict(
        results=result.final_blocks,
        wall_seconds=result.wall_seconds,
        timings={p: result.phase_seconds(p) for p in phases},
        window_history=result.window_history(),
        stats=result.stats,
        raw=result,
    )
    return measured, [r.fault_summary for r in result.reports]
