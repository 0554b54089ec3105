"""One way to run a program, on any of the three backends.

A run is one frozen configuration value handed to :func:`run`::

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
numbers are measured in differs.  :func:`run` is the only entry point:
the CLI, the experiments, the benchmarks and the tests all reach a
backend through it, every setting is checked once (by
:class:`RunConfig`), and every rank's engine comes from one factory
(:func:`rank_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.program import SyncIterativeProgram
from repro.core.receive_driven import IncrementalProgram
from repro.core.results import RunReport, assemble_report
from repro.engine.core import ReceiveDrivenEngine, build_engine, topology
from repro.engine.loopback import CalendarRunner, LoopbackRunner
from repro.faults import FaultPlan, wrap_engine
from repro.netsim.latency import latency_model
from repro.netsim.network import DelayNetwork
from repro.policy import CascadePolicy, WindowPolicy
from repro.trace.events import EventLog
from repro.vm import Cluster, uniform_specs

#: Backends :func:`run` dispatches over.
BACKENDS = ("des", "loopback", "mp")


@dataclass(frozen=True)
class RunConfig:
    """Everything one protocol run needs, as a single frozen value.

    Construction is validation: every setting is checked here, once,
    whichever backend the run goes to.

    Parameters
    ----------
    program:
        The application (any :class:`~repro.core.program.SyncIterativeProgram`).
        For the mp backend it must be picklable (all bundled apps are).
    backend:
        ``"des"`` (virtual-time simulator), ``"loopback"``
        (deterministic in-process scheduler) or ``"mp"`` (real OS
        processes over pipes).
    fw:
        Forward window: 0 (the blocking algorithm of Fig. 1) or any
        depth >= 1 (the speculative algorithm of Fig. 3, running at
        most ``fw`` iterations ahead of the oldest unverified one).
    bw:
        Backward window: how many verified iterations each rank
        retains for checking and correction (the engine's history
        cap).  None (default) keeps the engine's derived default.
    cascade:
        What to do with iterations computed *after* a rejected one
        (reachable only when fw >= 2); coerced to
        :class:`~repro.policy.CascadePolicy`.

        * ``"recompute"`` (default) — redo them in order from the
          corrected state, re-speculating still-missing inputs.
          Rigorous: with θ = 0 the local chain always equals what a
          blocking run would have produced from the same inputs.
        * ``"none"`` — correct only the iteration whose message just
          arrived, as the paper's implementation does ("the resultant
          force is recomputed"); downstream iterations keep their
          slightly stale own-state, bounded by θ, and are repaired
          implicitly as fresher messages arrive.  Far cheaper under
          deep forward windows.

        Corrections are local either way: blocks already broadcast
        from speculative state are not re-sent (counted as
        ``tainted_sends``).
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
    receive_driven:
        Run the Fig. 7 baseline instead of the speculative protocol:
        each rank absorbs remote blocks as they arrive and finishes
        the update once all are in (:class:`~repro.engine.core.ReceiveDrivenEngine`).
        Needs an :class:`~repro.core.receive_driven.IncrementalProgram`;
        the baseline has no forward or backward window, so ``fw``,
        ``bw``, ``cascade``, ``window_policy`` and ``fault_plan`` must
        keep their defaults.  The report's ``fw`` is 0.
    record_trace:
        Record protocol trace events; the report's ``event_log`` is
        then ready for ``repro analyze --trace`` replay.
    sanitize:
        Arm the runtime protocol sanitizer; None (default) defers to
        the ``REPRO_SANITIZE`` environment variable.
    seed:
        Seeds the jitter stream of the run's latency model
        (:func:`~repro.netsim.latency.latency_model`): one stream of
        seed ``seed`` on des, one per receiving rank of seed
        ``seed * 1000 + rank`` on mp; >= 0.  Fault seeding lives on
        the plan (``fault_plan.seed``), not here.
    latency:
        One-way message delay: virtual seconds on ``"des"``, wall
        seconds on ``"mp"``.  Must be 0 on ``"loopback"``, which has
        no clock, and with an explicit ``cluster``, whose network
        already defines the delays (``ValueError``: mutually
        exclusive).
    jitter:
        Log-normal sigma multiplying ``latency`` per message (des/mp
        only, same rules as ``latency``).  It scales the latency, so
        ``jitter > 0`` needs ``latency > 0``.
    cluster:
        DES only: an explicit :class:`~repro.vm.Cluster` (e.g. from
        :func:`repro.platforms.wustl_1994`) with one processor per
        rank, which has not run yet.  None (default) builds a uniform
        cluster with a constant-latency network from
        ``latency``/``jitter``.
    timeout:
        mp only: parent-side wall-clock budget for the whole run, in
        seconds (> 0).
    """

    program: SyncIterativeProgram
    backend: str = "des"
    fw: int = 1
    bw: Optional[int] = None
    cascade: str = "recompute"
    window_policy: Optional[WindowPolicy] = None
    fault_plan: Optional[FaultPlan] = None
    receive_driven: bool = False
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
        if self.receive_driven:
            if (
                self.fw != 1 or self.bw is not None
                or self.cascade != "recompute"
                or self.window_policy is not None or self.fault_plan is not None
            ):
                raise ValueError(
                    "receive_driven=True runs the Fig. 7 baseline, which has "
                    "no forward or backward window: fw, bw, cascade, "
                    "window_policy and fault_plan do not apply"
                )
            if not isinstance(self.program, IncrementalProgram):
                raise TypeError("receive_driven=True needs an IncrementalProgram")
        if self.fw < 0:
            raise ValueError("fw must be >= 0")
        # Frozen: the coerced spelling replaces the given one.
        object.__setattr__(self, "cascade", CascadePolicy.coerce(self.cascade))
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
        if self.jitter > 0 and self.latency == 0:
            raise ValueError(
                f"jitter={self.jitter} multiplies latency=0, so it would "
                "delay nothing; set latency > 0 or jitter = 0"
            )
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        if self.backend == "loopback" and (self.latency or self.jitter):
            raise ValueError(
                "the loopback backend has no clock; latency/jitter "
                "require backend='des' or backend='mp'"
            )
        if self.cluster is not None:
            if self.backend != "des":
                raise ValueError("cluster is a DES-only knob")
            if self.latency or self.jitter:
                raise ValueError(
                    "latency/jitter and an explicit cluster are mutually "
                    "exclusive on DES — the cluster's network already "
                    "defines the delays"
                )
            if self.cluster.size != nprocs:
                raise ValueError(
                    f"cluster has {self.cluster.size} processors but "
                    f"program wants {nprocs}"
                )


def run(config: RunConfig) -> RunReport:
    """Execute ``config`` on its backend; one report shape for all three."""
    if config.backend == "mp":
        # Deferred: the mp worker imports this module for rank_engine.
        from repro.parallel.runner import _start_mp

        return _start_mp(config)
    return _start_in_process(config)


def rank_engine(config: RunConfig, rank: int, topo: Any) -> Any:
    """Rank ``rank``'s engine for ``config`` — the one construction site
    of every backend: the Fig. 7 baseline's
    :class:`~repro.engine.core.ReceiveDrivenEngine`, or a
    :class:`~repro.engine.core.SpecEngine` seated in the fault plan's
    receive-path stage.  ``topo`` is :func:`~repro.engine.core.topology`'s
    result."""
    program = config.program
    if config.receive_driven:
        needed, audience = topo
        return ReceiveDrivenEngine(program, rank, needed[rank], audience[rank])
    engine = build_engine(
        program, rank, topo, fw=config.fw, cascade=config.cascade,
        hist_cap=config.bw, policy=config.window_policy,
        fault_plan=config.fault_plan,
    )
    # charge_poll: DES recvs have no timeout, so retransmit backoff is
    # paid as TryRecv + Charge polls in virtual time.
    return wrap_engine(
        engine, config.fault_plan, charge_poll=config.backend == "des"
    )


# ---------------------------------------------------------------- backends
def _default_cluster(config: RunConfig) -> Cluster:
    """Uniform DES cluster with a constant(+jitter) latency network."""
    latency = latency_model(config.latency, config.jitter, seed=config.seed)
    return Cluster(
        uniform_specs(config.program.nprocs),
        network_factory=lambda env: DelayNetwork(env, latency),
    )


def _start_in_process(config: RunConfig) -> RunReport:
    """One engine per rank in this process: a
    :class:`~repro.engine.loopback.CalendarRunner` on the des cluster's
    calendar (virtual seconds), else a
    :class:`~repro.engine.loopback.LoopbackRunner` (``wall_seconds`` is
    its scheduler rounds and the traces are in counted ops)."""
    cluster = None
    if config.backend == "des":
        cluster = config.cluster if config.cluster is not None else _default_cluster(config)
        if cluster.env.now != 0:
            # A used cluster's clock would carry over, and this run's
            # timings would silently include the last one's.
            raise ValueError(
                f"cluster has already run (env.now={cluster.env.now:g}); "
                "build a fresh Cluster per run"
            )
    log = EventLog() if config.record_trace else None
    topo = topology(config.program)
    engines = {
        rank: rank_engine(config, rank, topo)
        for rank in range(config.program.nprocs)
    }
    if cluster is None:
        runner = LoopbackRunner(engines, event_log=log, sanitize=config.sanitize)
    else:
        runner = CalendarRunner(
            cluster, engines, event_log=log, sanitize=config.sanitize)
    finals = runner.run()
    return assemble_report(
        config, finals, runner.traces.values(),
        [engine.stats for engine in engines.values()], runner.window_history,
        runner.rounds if cluster is None else cluster.env.now,
        None if config.fault_plan is None
        else [engine.injector.summary() for engine in engines.values()],
        capacities=() if cluster is None else cluster.capacities(),
        event_log=log,
    )
