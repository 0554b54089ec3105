"""Synchronous-iterative drivers: blocking (Fig. 1/7) and speculative (Fig. 3/4).

One driver, parameterised by the forward window FW:

* ``fw = 0`` — the classical blocking algorithm: every processor
  receives all X_k(t) before computing X_j(t+1) (Fig. 1; for N-body,
  Fig. 7).
* ``fw >= 1`` — the speculative algorithm: missing inputs are
  speculated, computation proceeds, and stragglers are verified when
  they arrive (Fig. 3).  ``fw`` bounds how many iterations the
  processor may run ahead of its oldest unverified iteration
  (Section 3.2's forward window, Fig. 4).

The protocol itself lives in :class:`repro.engine.SpecEngine` — a
sans-I/O state machine shared with the loopback and multiprocessing
backends.  This driver owns only what is DES-specific: building one
engine per rank, interpreting its effects against the rank's
:class:`~repro.vm.processor.VirtualProcessor` through
:class:`~repro.engine.des_transport.DESTransport`, and collecting the
run's measurements.

Verification and correction semantics
-------------------------------------
When the actual X_k(t) arrives for a speculated input, the processor
pays the check cost and evaluates the application's error metric.  If
the error exceeds the threshold θ:

* iteration t is repaired via the application's ``correct`` hook
  (full recomputation by default, or an incremental fix-up); and
* any iterations already computed *after* t (only possible with
  fw > 1) are recomputed in order — a *cascade* — because their own
  chain consumed the rejected value; still-missing remote inputs are
  re-speculated from the now-improved history.

Corrections are **local**, as in the paper: blocks already broadcast
from speculative state are not re-sent (counted as ``tainted_sends``);
synchronous iterative algorithms self-correct because full state is
re-exchanged every iteration and errors below θ are tolerated by
construction.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.analysis.sanitizer import ProtocolSanitizer, resolve_sanitizer
from repro.core.program import SyncIterativeProgram
from repro.core.results import RunReport, SpecStats, assemble_report
from repro.engine.core import build_engine, topology
from repro.engine.des_transport import DESTransport
from repro.engine.observer import RankObserver
from repro.faults import FaultPlan, wrap_engine
from repro.policy import CascadePolicy, WindowPolicy
from repro.vm import Cluster, VirtualProcessor


class SpeculativeDriver:
    """Runs a :class:`SyncIterativeProgram` on a :class:`Cluster`.

    Parameters
    ----------
    program:
        The application (numerics + cost model).
    cluster:
        The virtual machine; ``cluster.size`` must equal
        ``program.nprocs``.
    fw:
        Forward window; 0 disables speculation entirely.
    cascade:
        What to do with iterations computed *after* a rejected one
        (reachable only when fw >= 2):

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
    sanitize:
        Run under the :class:`~repro.analysis.sanitizer.ProtocolSanitizer`,
        which asserts DES and forward-window invariants as the
        simulation executes.  ``None`` (default) defers to the
        ``REPRO_SANITIZE`` environment variable.
    window_policy:
        Optional :class:`~repro.policy.WindowPolicy` template seated
        inside every rank's engine; each rank spawns a private copy
        and adapts independently.  ``fw`` is then the initial window;
        decisions land in the report's ``window_history``.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`; each rank's engine
        is wrapped in the fault middleware
        (:func:`~repro.faults.wrap_engine`), injecting the plan's
        seeded drops/duplicates/delays/reorders on the receive path
        with retransmit backoff paid in *virtual* time.
    """

    def __init__(
        self,
        program: SyncIterativeProgram,
        cluster: Cluster,
        fw: int = 1,
        cascade: "CascadePolicy | str" = CascadePolicy.RECOMPUTE,
        sanitize: Optional[bool] = None,
        window_policy: Optional[WindowPolicy] = None,
        fault_plan: Optional["FaultPlan"] = None,
        hist_cap: Optional[int] = None,
    ) -> None:
        if fw < 0:
            raise ValueError("fw must be >= 0")
        self.cascade = CascadePolicy.coerce(cascade)
        check_cluster(program, cluster)
        self.program = program
        self.cluster = cluster
        self.fw = fw
        self.sanitizer: Optional[ProtocolSanitizer] = resolve_sanitizer(sanitize)
        self._hist_cap = hist_cap
        self._stats = [SpecStats(rank=r) for r in range(cluster.size)]
        #: (needed, audience): validated dependency topology.
        self._topology = topology(program)
        #: Template window policy; each engine spawns a private copy.
        self.window_policy = window_policy
        #: Optional fault plan wrapped around every rank's engine.
        self.fault_plan = fault_plan
        #: Per-rank fault injectors, filled as rank programs build.
        self._injectors: list = []
        #: Per-rank observer seats, filled as rank programs build.
        self._observers: dict[int, RankObserver] = {}

    # ------------------------------------------------------------------ run
    def run(self) -> RunReport:
        """Execute the program to completion; returns the measurements
        (in virtual seconds)."""
        if self.sanitizer is not None:
            self.cluster.env.sanitizer = self.sanitizer
        finals = self.cluster.run(self._rank_program)
        if self.sanitizer is not None:
            self.sanitizer.on_run_end()
        return des_report(
            self.cluster, finals, self._stats, self._observers,
            None if self.fault_plan is None
            else [injector.summary() for injector in self._injectors],
            fw=self.fw, iterations=self.program.iterations,
        )

    # ---------------------------------------------------------- per-rank code
    def _rank_program(self, proc: VirtualProcessor) -> Generator:
        """One rank: a :class:`SpecEngine` driven over the simulator."""
        j = proc.rank
        engine = build_engine(
            self.program, j, self._topology, fw=self.fw,
            cascade=self.cascade, hist_cap=self._hist_cap,
            stats=self._stats[j], policy=self.window_policy,
            sanitizer=self.sanitizer, fault_plan=self.fault_plan,
        )
        if self.fault_plan is not None:
            # charge_poll: DES recvs have no timeout, so retransmit
            # backoff is paid as TryRecv + Charge polls in virtual time.
            engine = wrap_engine(engine, self.fault_plan, charge_poll=True)
            self._injectors.append(engine.injector)
        transport = DESTransport(
            proc, sanitizer=self.sanitizer, event_log=self.cluster.event_log
        )
        self._observers[j] = transport.observer
        return transport.drive(engine)


def check_cluster(program: SyncIterativeProgram, cluster: Cluster) -> None:
    """``cluster`` fits ``program`` and has not run yet — a used
    cluster's clock and phase traces would carry over, and the second
    run's timings would silently include the first's."""
    if cluster.size != program.nprocs:
        raise ValueError(
            f"cluster has {cluster.size} processors but program wants {program.nprocs}"
        )
    if cluster.env.now != 0:
        raise ValueError(
            f"cluster has already run (env.now={cluster.env.now:g}); "
            "build a fresh Cluster per run"
        )


def des_report(
    cluster: Cluster, finals: list, stats: list[SpecStats],
    observers: dict[int, RankObserver], receipts: Optional[list],
    fw: int, iterations: int,
) -> RunReport:
    """The report of a finished DES run, read off ``cluster``."""
    return assemble_report(
        "des", dict(enumerate(finals)), cluster.traces(), stats,
        {r: obs.window_history for r, obs in observers.items()},
        cluster.env.now, receipts, fw=fw, iterations=iterations,
        capacities=cluster.capacities(), event_log=cluster.event_log,
    )


def run_program(
    program: SyncIterativeProgram,
    cluster: Cluster,
    fw: int = 1,
    cascade: "CascadePolicy | str" = CascadePolicy.RECOMPUTE,
    sanitize: Optional[bool] = None,
    window_policy: Optional[WindowPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    hist_cap: Optional[int] = None,
) -> RunReport:
    """Convenience wrapper: build a driver and run it.

    Prefer :func:`repro.api.run` for new code — it runs the same
    configuration on any backend and returns one report type.
    """
    return SpeculativeDriver(
        program, cluster, fw=fw, cascade=cascade, sanitize=sanitize,
        window_policy=window_policy, fault_plan=fault_plan,
        hist_cap=hist_cap,
    ).run()
