"""Loopback transport: the whole protocol in one process, no clock.

The cheapest possible medium — per-rank FIFO queues and a
deterministic round-robin scheduler — useful for

* unit tests of protocol *logic* (what is sent, speculated, verified,
  corrected) without dragging in the DES kernel or real processes;
* toys and teaching: ``run_loopback(program, fw=1)`` runs the full
  speculative protocol on any :class:`SyncIterativeProgram` in
  microseconds;
* differential testing: loopback, DES and pipe backends drive the
  *same* :class:`~repro.engine.core.SpecEngine`, so their speculation
  counters and final numerics must agree wherever timing does not
  feed back into the numerics.

Delivery is immediate (messages become receivable the moment they are
sent) and per-pair FIFO.  The round-robin schedule itself produces
speculative executions: a rank scheduled ahead of its peers reaches
iteration ``t`` before their ``X(t)`` was sent, speculates, runs on,
and verifies when the scheduler hands the peers their turn — the
protocol's full speculate/verify/correct path, deterministically,
with no clocks.  Each ``Charge`` advances the rank's own op clock and
leaves a :class:`~repro.trace.PhaseTrace` row on it (the loopback's
"time"; a blocked receive costs no ops and leaves none).
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from functools import partial
from typing import Any, Deque, Dict, Optional, Tuple

from repro.analysis.sanitizer import ProtocolSanitizer, resolve_sanitizer
from repro.core.results import RunReport, assemble_report
from repro.engine.core import ReceiveDrivenEngine, build_engine, topology
from repro.engine.events import Arrival, Charge, Recv, Send, TryRecv
from repro.engine.observer import RankObserver
from repro.faults.middleware import wrap_engine
from repro.faults.plan import FaultPlan
from repro.policy import WindowPolicy
from repro.trace.phases import PhaseTrace


class LoopbackDeadlock(RuntimeError):
    """Every unfinished rank is blocked on a receive no queued or
    future message can satisfy."""


#: One queued message: (src, seq, family, iteration, payload).
_QueuedMessage = Tuple[int, int, str, int, Any]


class LoopbackRunner:
    """Runs one engine per rank over in-process FIFO queues.

    Parameters
    ----------
    engines:
        rank -> engine (``SpecEngine`` or ``ReceiveDrivenEngine``);
        every ``Send.dst`` must name another engine in the mapping.
    event_log:
        Optional :class:`~repro.trace.events.EventLog`; protocol
        events are recorded with the scheduler's step counter as the
        logical clock, ready for ``repro analyze --trace`` replay.
    sanitize:
        Run under the :class:`~repro.analysis.sanitizer.ProtocolSanitizer`
        (the same runtime seat the DES and pipe backends use); ``None``
        (default) defers to the ``REPRO_SANITIZE`` environment variable.
        An already-built sanitizer is shared as is (:func:`run_loopback`
        hands over the one its engines were built with).
    """

    def __init__(
        self,
        engines: Dict[int, Any],
        event_log: Any = None,
        sanitize: "Optional[bool | ProtocolSanitizer]" = None,
    ) -> None:
        if not engines:
            raise ValueError("need at least one engine")
        self.engines = dict(engines)
        self.event_log = event_log
        self.sanitizer: Optional[ProtocolSanitizer] = resolve_sanitizer(sanitize)
        self.queues: Dict[int, Deque[_QueuedMessage]] = {
            rank: deque() for rank in self.engines
        }
        #: rank -> phase rows on the rank's op clock, one per Charge.
        self.traces: Dict[int, PhaseTrace] = {
            rank: PhaseTrace(rank) for rank in self.engines
        }
        self._ops_clock: Dict[int, float] = dict.fromkeys(self.engines, 0.0)
        self._step = 0
        #: Scheduler sweeps completed — the loopback's coarse clock
        #: (responds to ``IterationDone``; also the unit of
        #: ``Arrival.waited`` for ranks parked on a blocking receive).
        self.rounds = 0
        self._parked_at: Dict[int, int] = {}
        #: rank -> round at which a parked Recv's ``timeout`` expires
        #: (the rank then resumes with None so the engine's retransmit
        #: timer can escalate; fault-free engines never set one).
        self._parked_deadline: Dict[int, int] = {}
        #: rank -> observer seat; its clock is the sweep count.
        self.observers: Dict[int, RankObserver] = {}
        for rank, engine in self.engines.items():
            observer = self.observers[rank] = RankObserver(
                rank,
                sanitizer=self.sanitizer,
                record=(
                    None if event_log is None else partial(self._record, rank)
                ),
                clock=lambda: float(self.rounds),
            )
            observer.begin(engine)

    @property
    def window_history(self) -> Dict[int, list[Tuple[int, int]]]:
        """rank -> (iteration, fw) trajectory from each rank's observer."""
        return {r: obs.window_history for r, obs in self.observers.items()}

    # -------------------------------------------------------------- running
    def run(self) -> Dict[int, Any]:
        """Execute every rank to completion; rank -> final block."""
        gens = {rank: engine.run() for rank, engine in self.engines.items()}
        notify = {rank: obs.notify for rank, obs in self.observers.items()}
        record = {rank: trace.record for rank, trace in self.traces.items()}
        clock = self._ops_clock
        response: Dict[int, Optional[Arrival | float]] = {
            rank: None for rank in gens
        }
        blocked: Dict[int, Recv] = {}
        finals: Dict[int, Any] = {}

        while len(finals) < len(gens):
            progress = False
            self.rounds += 1
            for rank in sorted(gens):
                if rank in finals:
                    continue
                if rank in blocked:
                    arrival = self._match(rank, blocked[rank].match)
                    if arrival is None:
                        deadline = self._parked_deadline.get(rank)
                        if deadline is None or self.rounds < deadline:
                            continue  # still blocked
                        # Bounded park expired: resume with None.
                        self._parked_at.pop(rank, None)
                        self._parked_deadline.pop(rank, None)
                        response[rank] = None
                        del blocked[rank]
                        progress = True
                    else:
                        waited = float(self.rounds - self._parked_at.pop(rank))
                        self._parked_deadline.pop(rank, None)
                        response[rank] = replace(arrival, waited=waited)
                        del blocked[rank]
                        progress = True
                # Step this rank until it blocks or finishes.
                while True:
                    try:
                        effect = gens[rank].send(response[rank])
                    except StopIteration as stop:
                        finals[rank] = stop.value
                        progress = True
                        break
                    response[rank] = None
                    progress = True
                    kind = type(effect)
                    if kind is Send:
                        self._deliver(rank, effect)
                    elif kind is TryRecv:
                        response[rank] = self._match(rank, None)
                    elif kind is Recv:
                        arrival = self._match(rank, effect.match)
                        if arrival is None:
                            blocked[rank] = effect
                            self._parked_at[rank] = self.rounds
                            if effect.timeout is not None:
                                self._parked_deadline[rank] = (
                                    self.rounds
                                    + max(1, int(effect.timeout))
                                )
                            break
                        response[rank] = arrival
                    elif kind is Charge:
                        start = clock[rank]
                        clock[rank] = end = start + effect.ops
                        record[rank](effect.phase, start, end, effect.iteration)
                    else:
                        response[rank] = notify[rank](effect)
            if not progress:
                if self._parked_deadline:
                    # A bounded park is still counting down: advancing
                    # the round clock toward its deadline *is* progress.
                    continue
                waiting = {
                    rank: (eff.match, eff.iteration)
                    for rank, eff in sorted(blocked.items())
                }
                raise LoopbackDeadlock(
                    f"no rank can make progress; blocked receives: {waiting}"
                )
        if self.sanitizer is not None:
            self.sanitizer.on_run_end()
        return finals

    # ------------------------------------------------------------ messaging
    def _deliver(self, src: int, effect: Send) -> None:
        if effect.dst not in self.queues:
            raise ValueError(f"send to unknown rank {effect.dst}")
        self._record(src, "send", effect.dst, effect.family, effect.iteration)
        self.queues[effect.dst].append(
            (src, effect.seq, effect.family, effect.iteration, effect.payload)
        )

    def _match(
        self, rank: int, match: Optional[Tuple[str, int]]
    ) -> Optional[Arrival]:
        """Pop ``rank``'s oldest queued message matching ``(family,
        iteration)`` (None matches any)."""
        queue = self.queues[rank]
        for i, (src, seq, family, iteration, payload) in enumerate(queue):
            if match is None or (family, iteration) == match:
                del queue[i]
                if self.sanitizer is not None:
                    self.sanitizer.on_delivery(rank, src, seq)
                self._record(rank, "recv", src, family, iteration)
                return Arrival(src=src, iteration=iteration, payload=payload,
                               seq=seq)
        return None

    # ------------------------------------------------------------ observers
    def _record(
        self, rank: int, kind: str, peer: Optional[int],
        family: Optional[str], iteration: Optional[int],
    ) -> None:
        """Trace one event, stamped with the step counter."""
        if self.event_log is not None:
            self._step += 1
            self.event_log.record(
                kind, rank, float(self._step), peer=peer, family=family,
                iteration=iteration,
            )


def build_loopback(
    program: Any,
    fw: int = 1,
    cascade: str = "recompute",
    receive_driven: bool = False,
    event_log: Any = None,
    sanitize: Optional[bool] = None,
    window_policy: Optional[WindowPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    hist_cap: Optional[int] = None,
) -> LoopbackRunner:
    """One engine per rank of ``program`` in a ready-to-run runner —
    the construction half of :func:`run_loopback`, for callers that
    want to inspect the runner's engines, queues or observers.

    With a ``fault_plan``, each engine is wrapped in the
    :mod:`repro.faults` receive-path seam (speculative engines only).
    """
    if receive_driven and (
        fw != 1 or cascade != "recompute" or window_policy is not None
        or fault_plan is not None
    ):
        raise ValueError(
            "receive_driven=True runs the Fig. 7 baseline, which has no "
            "forward window: fw, cascade, window_policy and fault_plan "
            "do not apply"
        )
    topo = needed, audience = topology(program)
    sanitizer = resolve_sanitizer(sanitize)
    engines: Dict[int, Any] = {}
    for rank in range(program.nprocs):
        if receive_driven:
            engines[rank] = ReceiveDrivenEngine(
                program, rank, needed[rank], audience[rank]
            )
        else:
            engines[rank] = wrap_engine(
                build_engine(
                    program, rank, topo, fw=fw, cascade=cascade,
                    hist_cap=hist_cap, policy=window_policy,
                    sanitizer=sanitizer, fault_plan=fault_plan,
                ),
                fault_plan,
            )
    # The runner shares the sanitizer the engines were built with.
    return LoopbackRunner(
        engines, event_log=event_log,
        sanitize=False if sanitizer is None else sanitizer,
    )


def run_loopback(
    program: Any,
    fw: int = 1,
    cascade: str = "recompute",
    receive_driven: bool = False,
    event_log: Any = None,
    sanitize: Optional[bool] = None,
    window_policy: Optional[WindowPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    hist_cap: Optional[int] = None,
) -> RunReport:
    """Run ``program`` on the loopback transport (arguments as for
    :func:`build_loopback`).

    Prefer :func:`repro.api.run` for new code; this remains the
    loopback backend primitive it delegates to.  ``wall_seconds`` is
    the number of scheduler rounds, ``traces`` are in counted ops.
    """
    runner = build_loopback(
        program, fw, cascade, receive_driven, event_log, sanitize,
        window_policy, fault_plan, hist_cap,
    )
    finals = runner.run()
    engines = runner.engines.values()
    return assemble_report(
        "loopback", finals, runner.traces.values(),
        [engine.stats for engine in engines], runner.window_history,
        runner.rounds,
        None if fault_plan is None else [e.injector.summary() for e in engines],
        fw=0 if receive_driven else fw, iterations=program.iterations,
        event_log=event_log,
    )
