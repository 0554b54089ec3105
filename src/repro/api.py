"""One run API across the three backends.

Every backend primitive — :func:`repro.core.driver.run_program` (DES),
:func:`repro.engine.loopback.run_loopback` and
:meth:`repro.parallel.MPRunner.run` — returns the same
:class:`~repro.core.results.RunReport`.  This module puts them behind
one frozen configuration value::

    from repro.api import RunConfig, run

    report = run(RunConfig(program, backend="mp", fw=2, latency=0.05))
    report.results[0]          # rank 0's final block
    report.timings["compute"]  # per-phase cost, max over ranks
    report.traces[0]           # rank 0's PhaseTrace rows, per iteration
    report.stats[0]            # rank 0's SpecStats
    report.window_history[0]   # rank 0's (iteration, fw) trajectory
    report.steady_breakdown()  # per-iteration phases without warm-up

The same ``RunConfig`` — including an optional
:class:`~repro.faults.FaultPlan` — runs unchanged on ``"des"``
(virtual time), ``"loopback"`` (deterministic in-process scheduler)
and ``"mp"`` (real OS processes over pipes); only the clock the
numbers are measured in differs.  :func:`run` is the one way the CLI
and the benchmark reach a backend; the three primitives are what it
dispatches to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.driver import SpeculativeDriver
from repro.core.program import SyncIterativeProgram
from repro.core.results import RunReport
from repro.engine.loopback import run_loopback
from repro.faults import FaultPlan
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
        (``fw`` is then the initial window, within the policy's
        ``[min_fw, max_fw]``).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`; the plan's seeded
        faults inject identically on every backend, and the report's
        :attr:`RunReport.fault_summary` carries the recovery receipt.
        Every rank the plan names must be one of the program's.
    record_trace:
        Record protocol trace events; the report's ``event_log`` is
        then ready for ``repro analyze --trace`` replay.
    sanitize:
        Arm the runtime protocol sanitizer; None (default) defers to
        the ``REPRO_SANITIZE`` environment variable.
    seed:
        Seeds the stochastic parts of the transport (DES jitter
        streams, mp per-worker jitter); >= 0.  Fault seeding lives on
        the plan (``fault_plan.seed``), not here.
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
        mp only: parent-side wall-clock budget for the whole run, in
        seconds (> 0).
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
        policy = self.window_policy
        if policy is not None and not policy.min_fw <= self.fw <= policy.max_fw:
            raise ValueError("initial fw must lie within [min_fw, max_fw]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.fault_plan is not None and nprocs is not None:
            plan = self.fault_plan
            named = [f.rank for f in plan.ranks] + [
                r for f in plan.edges for r in (f.src, f.dst) if r is not None
            ]
            outside = sorted({r for r in named if not 0 <= r < nprocs})
            if outside:
                raise ValueError(
                    f"fault plan names rank(s) {outside} but the program "
                    f"has ranks 0..{nprocs - 1}"
                )
        if self.bw is not None and self.bw < 1:
            raise ValueError("bw (the history cap) must be >= 1")
        if self.latency < 0 or self.jitter < 0:
            raise ValueError("latency and jitter must be >= 0")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
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


def run(config: RunConfig) -> RunReport:
    """Execute ``config`` on its backend; one report shape for all three."""
    knobs = dict(
        fw=config.fw, cascade=config.cascade, sanitize=config.sanitize,
        window_policy=config.window_policy, fault_plan=config.fault_plan,
        hist_cap=config.bw,
    )
    start = {"des": _start_des, "loopback": _start_loopback, "mp": _start_mp}
    return start[config.backend](config, knobs)


# ---------------------------------------------------------------- backends
# Each ``_start_*`` runs ``config`` on its backend with the protocol
# ``knobs`` every primitive takes, tracing when ``config.record_trace``.
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


def _start_des(config: RunConfig, knobs: dict) -> RunReport:
    cluster = config.cluster if config.cluster is not None else _default_cluster(config)
    if config.record_trace:
        cluster.event_log = EventLog()
    return SpeculativeDriver(config.program, cluster, **knobs).run()


def _start_loopback(config: RunConfig, knobs: dict) -> RunReport:
    log = EventLog() if config.record_trace else None
    return run_loopback(config.program, event_log=log, **knobs)


def _start_mp(config: RunConfig, knobs: dict) -> RunReport:
    from repro.parallel import MPRunner  # deferred: spawns processes

    return MPRunner(
        config.program, latency=config.latency, jitter=config.jitter,
        seed=config.seed, record_events=config.record_trace, **knobs,
    ).run(timeout=config.timeout)
