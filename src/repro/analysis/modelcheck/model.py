"""specmc's execution model: N sans-I/O engines under an explicit scheduler.

PR 3 made the protocol a pure state machine: ``SpecEngine.run()``
yields a frozen effect alphabet, never touches a clock, and all of a
rank's live state sits in the engine object whenever the generator is
parked at a ``Recv``/``TryRecv``.  That is exactly the shape an
explicit-state model checker needs:

* an :class:`Execution` *is* the loopback backend's
  :class:`~repro.engine.loopback.LoopbackRunner` — one engine per
  rank, one FIFO queue of undelivered messages per destination (the
  channel ``src -> dst`` is the part of it ``src`` sent), and a fresh
  :class:`~repro.engine.sanitizer.ProtocolSanitizer` (the runtime
  seat of the shared invariant registry, reused verbatim as the model
  checker's per-execution oracle) — driven by an explicit schedule
  instead of the round-robin one, so the checker checks the very
  machine loopback runs;
* the *scheduler's* nondeterminism is reified as :class:`Action`
  values — ``deliver`` (hand one queued message to a parked rank) and
  ``skip`` (answer a ``TryRecv`` with "nothing yet", modelling a
  message still in flight);
* every reachable state is a schedule prefix; states are fingerprinted
  (:meth:`Execution.fingerprint`) for deduplication, which is sound
  because a parked generator's continuation is a function of the
  engine fields plus the parked effect alone (the engine has no hidden
  locals that survive a park — see docs/static_analysis.md).

Engine-bug injection for the counterexample pipeline is modelled as
:class:`Mutation`\\ s — each names the registry invariant it must trip,
so the checker can assert its own detection power end to end.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.modelcheck.scenario import McConfig, build_program
from repro.core.program import SyncIterativeProgram
from repro.engine.core import SpecEngine, topology
from repro.engine.events import Arrival, Recv, Send, TryRecv
from repro.engine.invariants import require
from repro.engine.loopback import LoopbackRunner
from repro.engine.ring import OutOfOrderArrival
from repro.engine.sanitizer import ProtocolSanitizer, ProtocolViolation

__all__ = [
    "Action",
    "Execution",
    "McViolation",
    "Mutation",
    "MUTATIONS",
    "ReplayOutcome",
    "replay_schedule",
    "resolve_mutation",
    "schedule_from_json",
    "schedule_to_json",
]


# --------------------------------------------------------------------------
# Scheduler actions
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Action:
    """One scheduler decision.

    ``kind == "deliver"``: pop message ``idx`` of channel
    ``(src, rank)`` and resume ``rank``'s parked receive with it
    (``idx > 0`` only under the ``no-seq-floor`` mutation, which lets
    the wire reorder).  ``kind == "skip"``: resume ``rank``'s parked
    ``TryRecv`` with None — the message it might have seen is still in
    flight.  ``rank`` is always the rank that resumes, which is what
    the independence relation keys on.
    """

    kind: str
    rank: int
    src: int = -1
    idx: int = 0

    def to_json(self) -> List[Union[str, int]]:
        return [self.kind, self.rank, self.src, self.idx]

    @staticmethod
    def from_json(data: Sequence[Union[str, int]]) -> "Action":
        kind, rank, src, idx = data
        return Action(str(kind), int(rank), int(src), int(idx))

    def describe(self) -> str:
        if self.kind == "skip":
            return f"skip(rank={self.rank})"
        extra = f", idx={self.idx}" if self.idx else ""
        return f"deliver({self.src}->{self.rank}{extra})"


def schedule_to_json(schedule: Sequence[Action]) -> List[List[Union[str, int]]]:
    """JSON-ready schedule (inverse of :func:`schedule_from_json`)."""
    return [a.to_json() for a in schedule]


def schedule_from_json(
    data: Sequence[Sequence[Union[str, int]]]
) -> Tuple[Action, ...]:
    """Rebuild a schedule serialized by :func:`schedule_to_json`."""
    return tuple(Action.from_json(entry) for entry in data)


# --------------------------------------------------------------------------
# Mutations: injected engine/transport bugs the checker must catch
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Mutation:
    """A deliberate protocol bug plus the registry id it must trip."""

    name: str
    description: str
    expected_invariant: str

    def __post_init__(self) -> None:
        require(self.expected_invariant)


MUTATIONS: Dict[str, Mutation] = {
    m.name: m
    for m in (
        Mutation(
            "ungated-window",
            "disable the engine's pre-/post-send window gates (the "
            "trailing verification loop of Fig. 3 never blocks); "
            "catchable at fw=0, or fw=1 with iters=4",
            "forward-window-bound",
        ),
        Mutation(
            "no-seq-floor",
            "the transport ignores Send.seq: deliveries may take a "
            "later message first and the per-channel gap check is off "
            "— the pre-fix SPF111 stack, where injected jitter could "
            "present one peer's vars stream out of order",
            "history-ring-bound",
        ),
        Mutation(
            "seq-skip",
            "the engine's per-destination stamp skips a number (seq "
            "0 then 2), so a seq-honouring transport delivers a gap",
            "sequence-gap-freedom",
        ),
        Mutation(
            "drop-message",
            "the transport silently drops the first message on the "
            "1->0 channel and never answers the receiver's retransmit "
            "requests; the engine detects the sequence gap and asks, "
            "but the loss is unrecoverable",
            "retransmit-bounded",
        ),
        Mutation(
            "runaway-window",
            "the seated window policy widens unconditionally and "
            "ignores its own max_fw, so the engine's FW escapes the "
            "declared [min_fw, max_fw] bounds within two iterations",
            "window-policy-bound",
        ),
    )
}


def resolve_mutation(
    mutation: Union[str, Mutation, None]
) -> Optional[Mutation]:
    """Normalise a mutation given by name (or None / already built)."""
    if mutation is None or isinstance(mutation, Mutation):
        return mutation
    try:
        return MUTATIONS[mutation]
    except KeyError:
        raise ValueError(
            f"unknown mutation {mutation!r}; known: {sorted(MUTATIONS)}"
        ) from None


class _SeqSkippingEngine(SpecEngine):
    """``seq-skip``: the second stamp on every channel jumps by one."""

    def next_seq(self, dst: int) -> int:
        seq = super().next_seq(dst)
        if seq == 1:
            self._send_seq[dst] = 3
            return 2
        return int(seq)


def _ungated_horizon(engine: SpecEngine, t: int) -> int:
    return -(10**9)


def _ungated_window_ok(engine: SpecEngine, t: int) -> bool:
    return True


class _RunawayWindow:
    """``runaway-window``: widens every iteration, past its own bound."""

    min_fw = 0
    max_fw = 2

    def spawn(self) -> "_RunawayWindow":
        return _RunawayWindow()

    def on_iteration(self, t: int, *, fw: int, **signals: float) -> int:
        # Deliberately runaway (no max_fw clamp): this is the broken
        # policy the model checker must catch, not a policy to fix.
        return fw + 1  # specbound: disable=SPB405

    def state(self) -> Tuple[float, ...]:
        return ()


# --------------------------------------------------------------------------
# Violations
# --------------------------------------------------------------------------
@dataclass
class McViolation:
    """A registry invariant broken in one explored interleaving."""

    invariant: str
    details: str
    rank: Optional[int]
    schedule: Tuple[Action, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "invariant": self.invariant,
            "details": self.details,
            "rank": self.rank,
            "schedule": schedule_to_json(self.schedule),
        }

    def describe(self) -> str:
        steps = " ".join(a.describe() for a in self.schedule) or "(empty)"
        return (
            f"[{self.invariant}] {self.details}\n"
            f"  schedule ({len(self.schedule)} action(s)): {steps}"
        )


def _digest_block(block: Any) -> str:
    """Exact, hashable digest of an opaque block value."""
    if isinstance(block, np.ndarray):
        h = hashlib.blake2b(digest_size=8)
        h.update(repr((block.dtype.str, block.shape)).encode())
        h.update(block.tobytes())
        return h.hexdigest()
    if isinstance(block, (tuple, list)):
        return repr([_digest_block(b) for b in block])
    return repr(block)


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------
class Execution(LoopbackRunner):
    """The loopback runner of ``p`` engines under an explicit schedule.

    Construction primes every engine to its first park point; from
    then on the *only* nondeterminism is which :class:`Action` is
    applied next, so a schedule prefix identifies a state exactly.
    Queues, stepping, delivery, event recording and the observer seats
    are :class:`~repro.engine.loopback.LoopbackRunner`'s; this class
    adds the mutated engine construction, the actions and the deadlock
    check.  Invariant violations (from the sanitizer seat, or the
    engine's own :class:`OutOfOrderArrival`, reported as
    ``history-ring-bound``) are captured into :attr:`violation` rather
    than raised, so exploration code stays straight-line.  Nothing
    else needs checking per state: the sanitizer judges every
    ``WindowChanged`` as it is observed, and a
    :class:`~repro.engine.ring.HistoryRing` can neither outgrow its
    capacity nor accept a non-increasing time.
    """

    def __init__(
        self,
        config: McConfig,
        mutation: Union[str, Mutation, None] = None,
        event_log: Any = None,
    ) -> None:
        self.config = config
        self.mutation = resolve_mutation(mutation)
        self.program = build_program(config)
        if type(self.program).correct is not SyncIterativeProgram.correct:
            # fingerprint() settles owed repairs through ``correct``; only
            # the default (one pure compute) leaves the program as it was.
            raise TypeError("a specmc scenario program must keep the default correct")
        needed, audience = topology(self.program)

        name = self.mutation.name if self.mutation is not None else None
        engine_cls = _SeqSkippingEngine if name == "seq-skip" else SpecEngine
        gate_kwargs: Dict[str, Any] = {}
        if name == "ungated-window":
            gate_kwargs = {
                "pre_send_horizon": _ungated_horizon,
                "window_ok": _ungated_window_ok,
            }
        #: The pre-fix stacks being modelled had no wire stamps, so the
        #: per-channel gap check is off for them: ``no-seq-floor``
        #: must be caught downstream (HistoryRing), ``drop-message``
        #: by the retransmit-bounded detector.
        self._check_delivery_seq = name not in ("no-seq-floor", "drop-message")
        #: ``no-seq-floor`` models the pre-PR10 unsequenced wire: its
        #: arrivals carry seq=-1, so the engine's gap/stash resilience
        #: stays disarmed and the reorder reaches the HistoryRing.
        self._include_seq = name != "no-seq-floor"
        self._reorder = name == "no-seq-floor"
        self._drop = name == "drop-message"
        policy = (
            _RunawayWindow()
            if name == "runaway-window"
            else config.window_policy()
        )
        engines = {
            rank: engine_cls(
                self.program, rank, needed[rank], audience[rank],
                fw=config.fw, cascade=config.cascade,
                hist_cap=config.hist_cap, policy=policy, **gate_kwargs,
            )
            for rank in range(config.p)
        }
        super().__init__(
            engines, event_log=event_log, sanitize=ProtocolSanitizer()
        )
        self.violation: Optional[McViolation] = None
        self.schedule: List[Action] = []
        self.dropped = 0
        for rank in sorted(self.engines):
            if self.violation is None:
                self.resume(rank, None)

    # ------------------------------------------------------------ queries
    @property
    def is_done(self) -> bool:
        """Every rank returned its final block (and nothing broke)."""
        return self.violation is None and len(self.finals) == len(self.engines)

    def enabled_actions(self) -> List[Action]:
        """All scheduler actions applicable in the current state."""
        if self.violation is not None:
            return []
        actions: List[Action] = []
        for rank in sorted(self.parked):
            effect = self.parked[rank]
            if isinstance(effect, TryRecv):
                actions.append(Action("skip", rank))
                actions.extend(self._deliveries(rank, None))
            else:  # Recv
                actions.extend(self._deliveries(rank, effect.match))
        return actions

    def _deliveries(
        self, rank: int, match: Optional[Tuple[str, int]]
    ) -> List[Action]:
        """One ``deliver`` per channel into ``rank`` holding a message
        ``match`` accepts: the channel's oldest such message (plus its
        second message for a wildcard receive under ``no-seq-floor``).
        Channel ``src -> rank`` is the part of ``rank``'s queue ``src``
        sent, so ``Action.idx`` counts within that part."""
        first: Dict[int, int] = {}  # src -> idx of its oldest match
        sent: Dict[int, int] = {}  # src -> channel length so far
        for src, _seq, family, iteration, _payload in self.queues[rank]:
            idx = sent.get(src, 0)
            sent[src] = idx + 1
            if src not in first and (
                match is None or (family, iteration) == match
            ):
                first[src] = idx
        out: List[Action] = []
        for src in sorted(first):
            out.append(Action("deliver", rank, src, first[src]))
            if match is None and self._reorder and sent[src] >= 2:
                out.append(Action("deliver", rank, src, 1))
        return out

    def _queue_index(self, action: Action) -> int:
        """Where message ``action.idx`` of channel ``action.src ->
        action.rank`` sits in ``action.rank``'s queue."""
        channel = [
            i for i, message in enumerate(self.queues[action.rank])
            if message[0] == action.src
        ]
        if not 0 <= action.idx < len(channel):
            raise ValueError(f"{action.describe()} not enabled")
        return channel[action.idx]

    def check_deadlock(self) -> Optional[McViolation]:
        """Detect (and record) a terminal state with unfinished ranks."""
        if self.violation is not None or self.is_done:
            return self.violation
        if self.enabled_actions():
            return None
        waiting = {
            rank: type(eff).__name__ for rank, eff in sorted(self.parked.items())
        }
        undelivered = sum(len(q) for q in self.queues.values())
        retransmits = sum(e.stats.retransmits for e in self.engines.values())
        if self.dropped > 0 and retransmits > 0:
            # The wedge is a *diagnosed* loss: the engine detected the
            # gap and requested retransmission, but the transport never
            # answered — the recovery contract, not scheduling, broke.
            self._violate(
                "retransmit-bounded",
                f"{retransmits} retransmit request(s) went "
                f"unanswered after {self.dropped} dropped message(s); "
                f"ranks {sorted(self.parked)} are wedged awaiting "
                "recovery (parked: "
                f"{waiting}; undelivered messages: {undelivered})",
                rank=None,
            )
            return self.violation
        self._violate(
            "deadlock-freedom",
            f"no action enabled but ranks {sorted(self.parked)} are "
            f"unfinished (parked: {waiting}; undelivered messages: "
            f"{undelivered}, dropped: {self.dropped})",
            rank=None,
        )
        return self.violation

    # ------------------------------------------------------------ stepping
    def apply(self, action: Action) -> None:
        """Apply one enabled scheduler action (strict: raises if not)."""
        if self.violation is not None:
            raise RuntimeError("execution already violated; cannot step")
        self.schedule.append(action)
        effect = self.parked.get(action.rank)
        if action.kind == "skip":
            if not isinstance(effect, TryRecv):
                raise ValueError(f"{action.describe()} not enabled")
            self.resume(action.rank, None)
        elif action.kind == "deliver":
            i = self._queue_index(action)
            if effect is None:
                raise ValueError(f"{action.describe()}: rank not parked")
            try:
                arrival = self.pop(action.rank, i, self._check_delivery_seq)
            except ProtocolViolation as exc:
                self._violate(exc.invariant, exc.details, rank=action.rank)
                return
            # A delivery resuming a blocking Recv counts one compute step
            # of wait — the deterministic analogue of blocked-in-select
            # time, which is what makes window-widening decisions
            # reachable for a seated policy (harmless otherwise: the
            # engine's wait is unread).
            waited = (self.program.compute_ops(action.rank)
                      if isinstance(effect, Recv) else 0.0)
            self.resume(action.rank, replace(
                arrival,
                waited=waited,
                seq=arrival.seq if self._include_seq else -1,
            ))
        else:
            raise ValueError(f"unknown action kind {action.kind!r}")

    def resume(self, rank: int, response: Optional[Arrival] = None) -> None:
        """The runner's step, with a broken invariant captured."""
        try:
            super().resume(rank, response)
        except ProtocolViolation as exc:
            self._violate(exc.invariant, exc.details, rank=rank)
        except OutOfOrderArrival as exc:
            self._violate(
                "history-ring-bound",
                f"rank {rank}: HistoryRing rejected a non-increasing "
                f"arrival time ({exc}) — a message overtook its "
                "predecessor on the wire (the SPF111 pattern)",
                rank=rank,
            )

    def _send(self, src: int, effect: Send) -> None:
        if self._drop and src == 1 and effect.dst == 0 and effect.seq == 0:
            self._record(src, "send", effect.dst, effect.family, effect.iteration)
            self.dropped += 1
        else:
            super()._send(src, effect)

    # ------------------------------------------------------------ checking
    def _violate(
        self, invariant: str, details: str, rank: Optional[int]
    ) -> None:
        require(invariant)
        self.violation = McViolation(
            invariant=invariant,
            details=details,
            rank=rank,
            schedule=tuple(self.schedule),
        )

    # --------------------------------------------------------- fingerprint
    def fingerprint(self) -> bytes:
        """Exact digest of the protocol-relevant state.

        Sound for dedup because a parked rank's continuation is a
        function of (engine fields, parked effect) only, and future
        *transport* behaviour is a function of the channel contents.
        Excluded on purpose: ``SpecStats`` counters and the schedule
        itself (neither feeds back into protocol decisions), which is
        what lets different interleavings converge.
        """
        h = hashlib.blake2b(digest_size=20)

        def put(*parts: object) -> None:
            h.update(repr(parts).encode())
            h.update(b"\x00")

        for rank in sorted(self.engines):
            if rank in self.finals:
                put("done", rank, _digest_block(self.finals[rank]))
                continue
            effect = self.parked.get(rank)
            if isinstance(effect, TryRecv):
                put("park", rank, "TryRecv")
            elif isinstance(effect, Recv):
                put("park", rank, "Recv", effect.phase, effect.iteration,
                    effect.match)
            else:  # pragma: no cover - every live rank is parked
                put("running", rank)
            eng = self.engines[rank]
            put(eng.frontier, eng.verified_upto, eng.fw)
            # The settled block: a state whose repair of X(t) is still
            # owed continues exactly like one that already ran it.
            # (__init__ holds the scenario to the default, pure correct.)
            for t in sorted(eng.chain):
                block = eng.chain[t]
                if t - 1 in eng.owed:
                    block = eng.program.correct(
                        rank, block, eng.inputs_used[t - 1], eng.owed[t - 1], t - 1
                    )
                put("chain", t, _digest_block(block))
            for key in sorted(eng.actual):
                put("actual", key, _digest_block(eng.actual[key]))
            for key in sorted(eng.spec_used):
                put("spec", key, _digest_block(eng.spec_used[key]))
            for t in sorted(eng.inputs_used):
                for k in sorted(eng.inputs_used[t]):
                    put("inputs", t, k, _digest_block(eng.inputs_used[t][k]))
            for t in sorted(eng.missing):
                put("missing", t, eng.missing[t])
            for dst in sorted(eng._send_seq):
                put("seq", dst, eng._send_seq[dst])
            # Resilience state: expected next seqs, stashed
            # out-of-order arrivals and open retransmit gaps all feed
            # the continuation once sequenced wires are in play.
            for src in sorted(eng._recv_next):
                put("rnext", src, eng._recv_next[src])
            for src in sorted(eng._recv_stash):
                stash = eng._recv_stash[src]
                put("rstash", src, tuple(
                    (s, stash[s].iteration, _digest_block(stash[s].payload))
                    for s in sorted(stash)
                ))
            for src in sorted(eng._gaps):
                put("rgap", src, tuple(eng._gaps[src]))
            if eng.policy is not None:
                # With a seated policy the adaptation signals *do* feed
                # back into protocol decisions, so they join the state.
                put("policy", eng.wait, eng.lag, eng.work,
                    eng.overhead, eng.verify, eng.policy.state())
            for k in sorted(eng.history):
                times, values = eng.history[k].series()
                put("hist", k, tuple(times),
                    tuple(_digest_block(v) for v in values))
        channels: Dict[Tuple[int, int], List[Tuple[Any, ...]]] = {}
        for dst, queue in self.queues.items():
            for src, seq, family, iteration, payload in queue:
                channels.setdefault((src, dst), []).append(
                    (seq, family, iteration, _digest_block(payload))
                )
        for key in sorted(channels):
            put("chan", key, tuple(channels[key]))
        return h.digest()


# --------------------------------------------------------------------------
# Schedule replay (shrinker, emitted tests, trace emission)
# --------------------------------------------------------------------------
@dataclass
class ReplayOutcome:
    """Result of replaying a (possibly partial) schedule."""

    violation: Optional[McViolation]
    finals: Dict[int, Any]
    applied: int
    skipped: int
    completed: int
    config: McConfig = field(repr=False, default=McConfig())


def _canonical_key(action: Action) -> Tuple[int, int, int, int]:
    """Deterministic completion order: deliveries first, low ranks first."""
    return (1 if action.kind == "skip" else 0, action.rank, action.src,
            action.idx)


#: Most canonical actions a replay takes after its schedule runs out.
MAX_COMPLETION_STEPS = 100_000


def replay_schedule(
    config: McConfig,
    schedule: Sequence[Action],
    mutation: Union[str, Mutation, None] = None,
    event_log: Any = None,
) -> ReplayOutcome:
    """Replay ``schedule`` against a fresh :class:`Execution`.

    Best-effort: actions no longer enabled (the shrinker removes their
    enablers) are skipped, and after the schedule runs out the
    execution is *completed deterministically* (canonical action order)
    so run-end and deadlock violations still surface.
    """
    ex = Execution(config, mutation=mutation, event_log=event_log)
    applied = skipped = completed = 0
    for action in schedule:
        if ex.violation is not None or ex.is_done:
            break
        if action in ex.enabled_actions():
            ex.apply(action)
            applied += 1
        else:
            skipped += 1
    while (ex.violation is None and not ex.is_done
           and completed < MAX_COMPLETION_STEPS):
        actions = ex.enabled_actions()
        if not actions:
            ex.check_deadlock()
            break
        ex.apply(min(actions, key=_canonical_key))
        completed += 1
    return ReplayOutcome(
        violation=ex.violation,
        finals=dict(ex.finals),
        applied=applied,
        skipped=skipped,
        completed=completed,
        config=config,
    )
