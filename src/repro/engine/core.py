"""The sans-I/O speculative protocol engine.

One state machine owns the paper's protocol (Fig. 3: send →
receive-what-arrived → speculate → compute → verify → correct, with
the FW/BW windows of Section 3.2) for *every* backend.  The engine:

* keeps per-peer :class:`~repro.engine.ring.HistoryRing` backward
  windows, the own-state chain, the speculation ledger and the
  verified horizon;
* stamps every outgoing message with a per-destination sequence
  number, so transports can (and the pipe transport does) enforce
  protocol order at the receiver — the fix for the SPF111
  unordered-sends race;
* calls the application's pure numerics (``compute`` / ``speculate``
  / ``check`` / ``correct``) itself, but expresses *everything with a
  cost or a side effect* as a yielded effect
  (:mod:`repro.engine.events`) interpreted by a transport.

``SpecEngine.run()`` is a generator over effects::

    gen = engine.run()
    response = None
    while True:
        try:
            effect = gen.send(response)
        except StopIteration as stop:
            final_block = stop.value
            break
        response = transport.handle(effect)   # Arrival / None

The loopback runner answers effects from in-process queues, the DES
backend (:class:`~repro.engine.loopback.CalendarRunner`, the same
runner) from a simulated cluster's calendar and network, and the pipe
transport with real ``multiprocessing`` I/O — three media, one
protocol.

:class:`ReceiveDrivenEngine` expresses the paper's Fig. 7 baseline
(incremental compute, no speculation) over the same effect alphabet,
so the receive-driven baseline shares the transports and observers too.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Generator, Optional, Sequence, Tuple

from repro.core.program import Block, SyncIterativeProgram
from repro.core.receive_driven import IncrementalProgram
from repro.core.results import SpecStats
from repro.engine.events import (
    VARS,
    Arrival,
    CascadeBegin,
    CascadeEnd,
    CascadeStep,
    Charge,
    ComputeBegin,
    Corrected,
    Degraded,
    IterationDone,
    Recv,
    Retransmit,
    Send,
    Speculated,
    TryRecv,
    Verified,
    WindowChanged,
)
from repro.engine.ring import HistoryRing
from repro.policy import CascadePolicy, WindowPolicy


#: The field-less effects carry nothing, so each is built once.
_TRY_RECV, _CASCADE_END = TryRecv(), CascadeEnd()


class RetransmitExhausted(RuntimeError):
    """A sequence gap survived the engine's full retry budget.

    Raised *after* the final over-budget :class:`Retransmit` effect is
    yielded, so the sanitizer seat (``retransmit-bounded``) observes
    the violation before the rank dies.
    """


def default_hist_cap(program: SyncIterativeProgram) -> int:
    """Backward-window ring capacity for ``program``'s speculator."""
    return max(getattr(program.speculator, "backward_window", 1), 2) + 2


def run_ahead_bound(max_fw: int) -> int:
    """How far past a rank's verified horizon its peers' arrivals reach.

    A peer sends X(t) once it holds our X(t - w), which we sent with
    t - 2w verified, w = max(fw, 1) — blocking runs included.  ``max_fw``
    is the window's ceiling, not the live fw: peers under an adaptive
    policy may legitimately run a wider window than this rank's current
    one.  The sanitizer checks each arrival's backlog against it and
    the ``inbox`` / ``in-flight`` occupancy contracts a recorded trace's.
    """
    return 2 * max(max_fw, 1)


def topology(
    program: SyncIterativeProgram,
) -> Tuple[list[FrozenSet[int]], list[list[int]]]:
    """Validated ``(needed, audience)`` lists for every rank.

    ``needed[j]`` is the set of ranks whose blocks ``j`` reads;
    ``audience[j]`` the ranks that read ``j`` (who ``j`` must send
    to).  Raises on self-dependencies or out-of-range ranks.
    """
    p = program.nprocs
    needed: list[FrozenSet[int]] = []
    for j in range(p):
        deps = frozenset(program.needed(j))
        if j in deps or not deps <= set(range(p)):
            raise ValueError(f"invalid needed set for rank {j}: {sorted(deps)}")
        needed.append(deps)
    audience = [[k for k in range(p) if j in needed[k]] for j in range(p)]
    return needed, audience


#: Signature of the overridable forward-window gates: ``(engine, t)``.
HorizonFn = Callable[["SpecEngine", int], int]
WindowFn = Callable[["SpecEngine", int], bool]


def default_pre_send_horizon(engine: "SpecEngine", t: int) -> int:
    """Oldest iteration that must be verified before X_j(t) is sent.

    Fig. 3 sends X_j(t) only once the trailing verification loop has
    caught up to ``t - max(fw, 1)``, so corrections land before the
    block goes on the wire.  The default behind the engine's
    ``pre_send_horizon=`` constructor hook, which specmc mutations and
    the sanitizer tests replace to sabotage the gate.
    """
    return t - max(engine.fw, 1)


def default_window_ok(engine: "SpecEngine", t: int) -> bool:
    """May iteration ``t`` start given the rank's forward window?"""
    if engine.fw == 0:
        return engine.verified_upto >= t
    return engine.verified_upto >= t - engine.fw


class SpecEngine:
    """Sans-I/O speculative protocol state machine for one rank.

    Parameters
    ----------
    program:
        The application (numerics + cost model); kernels are called
        directly, costs are yielded as :class:`~repro.engine.events.Charge`.
    rank:
        This engine's rank.
    needed / audience:
        The rank's dependency topology (see :func:`topology`).
    fw:
        Forward window; 0 reproduces the blocking algorithm of Fig. 1.
        With a seated ``policy`` this is the *initial* window and must
        lie within the policy's bounds.
    cascade:
        ``"recompute"`` (redo iterations after a rejected one) or
        ``"none"`` (the paper's local correction), as validated by
        :class:`~repro.api.RunConfig`.
    hist_cap:
        Backward-window ring capacity (default from the speculator).
    pre_send_horizon / window_ok:
        Overridable forward-window gates (drivers pass bound methods;
        tests sabotage them to exercise the runtime sanitizer).  Both
        gates read ``engine.fw`` live, so they track the *current*
        window under an adapting policy.
    policy:
        Optional :class:`~repro.policy.WindowPolicy` consulted at every
        ``IterationDone`` with the transport-supplied clock; a changed
        window is announced as a ``WindowChanged`` effect.  The engine
        spawns a private instance, so one template may seed all ranks.
    sanitizer:
        Optional :class:`~repro.engine.sanitizer.ProtocolSanitizer`
        whose buffer-occupancy hooks (``buffer-occupancy-bounded``) are
        fed on every arrival: history-ring occupancy vs capacity and
        the run-ahead backlog vs the FW-derived inbox bound.
    max_retries / retry_backoff:
        Resilience budget for sequenced arrivals (``Arrival.seq >= 0``):
        a detected sequence gap is announced as a :class:`Retransmit`
        effect and escalated with exponential backoff (base
        ``retry_backoff`` transport clock units) at most ``max_retries``
        times before the engine gives up with
        :class:`RetransmitExhausted`.  Inert on fault-free transports,
        which always deliver in seq order.
    """

    def __init__(
        self,
        program: SyncIterativeProgram,
        rank: int,
        needed: FrozenSet[int],
        audience: Sequence[int],
        fw: int = 1,
        cascade: "CascadePolicy | str" = CascadePolicy.RECOMPUTE,
        hist_cap: Optional[int] = None,
        pre_send_horizon: Optional[HorizonFn] = None,
        window_ok: Optional[WindowFn] = None,
        policy: Optional[WindowPolicy] = None,
        sanitizer: Optional[object] = None,
        max_retries: int = 4,
        retry_backoff: float = 1.0,
    ) -> None:
        if policy is not None and not policy.min_fw <= fw <= policy.max_fw:
            raise ValueError("initial fw must lie within [min_fw, max_fw]")
        self.program = program
        self.rank = rank
        self.needed = frozenset(needed)
        self.audience = list(audience)
        self.fw = fw
        self.cascade = cascade
        self.policy = policy.spawn() if policy is not None else None
        self.sanitizer = sanitizer
        self.hist_cap = hist_cap if hist_cap is not None else default_hist_cap(program)
        #: This rank's protocol counters.
        self.stats = SpecStats(rank=rank)
        self._pre_send_horizon = pre_send_horizon
        self._window_ok = window_ok

        # ------------------------------------------------ protocol state
        #: Own chain: chain[t] = X_rank(t); seeded with the initial block.
        self.chain: Dict[int, Block] = {0: program.initial_block(rank)}
        #: Received (or initial) remote blocks: (k, t) -> block.
        self.actual: Dict[Tuple[int, int], Block] = {}
        #: Speculated values currently standing in for missing inputs.
        self.spec_used: Dict[Tuple[int, int], Block] = {}
        #: Exact inputs used to compute chain[t+1] (for corrections).
        self.inputs_used: Dict[int, Dict[int, Block]] = {}
        #: Rejections whose repair of chain[t+1] has not run yet:
        #: t -> [(k, speculated, actual), ...] in rejection order.  Each
        #: was charged as it was rejected; :meth:`_settle` runs them.
        self.owed: Dict[int, list] = {}
        #: Backward-window rings of received actuals, per remote rank.
        self.history: Dict[int, HistoryRing] = {}
        #: Remaining messages expected for iteration t (t >= 1).
        self.missing: Dict[int, int] = {}
        #: Largest v such that iterations 0..v are fully received.
        self.verified_upto = 0
        #: Next iteration to compute (chain[frontier] is the newest block).
        self.frontier = 0
        #: The window policy's signals, cumulative since the run started
        #: (see :meth:`~repro.policy.WindowPolicy.on_iteration`): the
        #: transport's answers to each ``Charge``, or the ops if none.
        self.wait = 0.0
        self.lag = 0.0
        self.work = 0.0
        self.overhead = 0.0
        self.verify = 0.0
        #: Per-destination send sequence numbers (protocol-order stamps).
        self._send_seq: Dict[int, int] = {dst: 0 for dst in self.audience}
        # ---------------------------------------------- resilience state
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if retry_backoff <= 0:
            raise ValueError("retry_backoff must be > 0")
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        #: Next expected arrival seq per source (sequenced arrivals only).
        self._recv_next: Dict[int, int] = {}
        #: Out-of-order arrivals parked until their gap heals; bounded by
        #: the inbox bound (each stashed seq is a distinct in-flight
        #: iteration, itself window-bounded at the sender).
        self._recv_stash: Dict[int, Dict[int, Arrival]] = {}
        #: Open gaps: src -> (missing seq, attempt, ticks since request).
        self._gaps: Dict[int, list] = {}
        self._last_degraded = False
        for k in self.needed:
            block0 = program.initial_block(k)
            self.actual[(k, 0)] = block0
            self.history[k] = HistoryRing(self.hist_cap, initial=(0, block0))
        if not self.needed:
            # No remote inputs exist; every iteration is vacuously
            # verified, so the windows never block.
            self.verified_upto = program.iterations

    # ------------------------------------------------------------ windows
    def pre_send_horizon(self, t: int) -> int:
        """Oldest iteration that must be verified before X_j(t) is sent."""
        gate = self._pre_send_horizon or default_pre_send_horizon
        return gate(self, t)

    def window_ok(self, t: int) -> bool:
        """May iteration ``t`` start given the rank's forward window?"""
        gate = self._window_ok or default_window_ok
        return gate(self, t)

    # ---------------------------------------------------------- bookkeeping
    def prune(self) -> None:
        """Drop bookkeeping no correction can ever need again."""
        horizon = min(self.verified_upto, self.frontier)
        for t in [t for t in self.inputs_used if t < horizon]:
            del self.inputs_used[t]
        for key in [key for key in self.actual if key[1] < horizon]:
            del self.actual[key]
        for t in [t for t in self.missing if t < horizon]:
            del self.missing[t]
        for t in [t for t in self.chain if t < horizon - 1]:
            del self.chain[t]

    def next_seq(self, dst: int) -> int:
        """Stamp (and advance) the send sequence number for ``dst``."""
        seq = self._send_seq.setdefault(dst, 0)
        self._send_seq[dst] = seq + 1
        return seq

    # --------------------------------------------------------- corrections
    def block(self, t: int) -> Block:
        """X_rank(t) as a read must see it: any repair owed to it first."""
        if self.owed and t - 1 in self.owed:
            self._repair(t - 1)
        return self.chain[t]

    def _repair(self, t: int) -> None:
        """Repair chain[t+1] for every rejection owed at ``t``, in one call."""
        self.chain[t + 1] = self.program.correct(
            self.rank, self.chain[t + 1], self.inputs_used[t], self.owed.pop(t), t
        )

    def _settle(self, recompute_after: Optional[int] = None) -> None:
        """Run each owed repair that may no longer wait, oldest first.

        A repair of chain[t+1] waits while more of iteration ``t``'s
        rejections may come (t is not yet verified) and nothing may read
        the block yet (t+1 is neither computed nor allowed by the
        window).  A cascade about to recompute every block after
        ``recompute_after`` takes the place of the repairs owed to them:
        those run now, so the program drops what it holds for them, and
        the recompute overwrites their result (applied later, a repair
        would correct a block already computed from the actual inputs).
        Called inside each verification, before its last ``Charge``, so
        a repair is booked as check or correct time.
        """
        for t in sorted(self.owed):
            if (
                self.verified_upto >= t
                or t + 1 < self.frontier
                or self.window_ok(t + 1)
                or (recompute_after is not None and t > recompute_after)
            ):
                self._repair(t)

    # ------------------------------------------------------------ protocol
    def run(self) -> Generator:
        """The full protocol for this rank, as an effect generator.

        Yields :mod:`repro.engine.events` effects; ``Recv``/``TryRecv``
        expect an :class:`Arrival` (or None) sent back.  Returns the
        rank's final block.
        """
        prog = self.program
        j = self.rank
        T = prog.iterations
        stats = self.stats

        for t in range(T):
            # 1. Opportunistically absorb whatever has already arrived.
            while True:
                arrival = yield _TRY_RECV
                if arrival is None:
                    break
                yield from self._on_arrival(arrival) or ()

            # 2a. Pre-send window: Fig. 3 sends X_j(t) only after the
            #     previous iteration's trailing verification loop, so any
            #     correction of X_j(t) lands *before* it goes on the wire.
            while self.verified_upto < self.pre_send_horizon(t):
                arrival = yield Recv(
                    phase="comm", iteration=t, timeout=self._recv_timeout()
                )
                if arrival is None:
                    yield from self._on_recv_timeout()
                    continue
                self.wait += arrival.waited
                yield from self._on_arrival(arrival) or ()

            # 2b. Broadcast X_j(t) (iteration 0 is known everywhere from
            #     the initial read; no message needed).
            if t > 0 and self.audience:
                if any(key[1] < t for key in self.spec_used):
                    stats.tainted_sends += 1
                nbytes = prog.block_nbytes(j)
                payload = self.block(t)
                for dst in self.audience:
                    yield Send(
                        dst=dst,
                        payload=payload,
                        iteration=t,
                        nbytes=nbytes,
                        seq=self.next_seq(dst),
                    )
                    stats.messages_sent += 1
                pack = prog.send_ops(j) * len(self.audience)
                if pack > 0:
                    # Sender-side software cost (PVM pack); serial with
                    # the sender's own progress, like the real stack.
                    spent = yield Charge(pack, phase="comm", iteration=t)
                    self.work += pack if spent is None else spent

            # 2c. Post-send window: with fw = 0 this is the blocking
            #     receive of Fig. 1; with fw >= 1 a no-op beyond 2a.
            while not self.window_ok(t):
                arrival = yield Recv(
                    phase="comm", iteration=t, timeout=self._recv_timeout()
                )
                if arrival is None:
                    yield from self._on_recv_timeout()
                    continue
                self.wait += arrival.waited
                yield from self._on_arrival(arrival) or ()

            # 3. Assemble inputs, speculating what is missing.
            inputs: Dict[int, Block] = {j: self.block(t)}
            for k in sorted(self.needed):
                known = self.actual.get((k, t))
                if known is not None:
                    inputs[k] = known
                else:
                    times, values = self.history[k].series()
                    spec = prog.speculate(j, k, times, values, t)
                    ops = prog.speculate_ops(j, k)
                    spent = yield Charge(ops, phase="spec", iteration=t)
                    self.overhead += ops if spent is None else spent
                    self.spec_used[(k, t)] = spec
                    inputs[k] = spec
                    stats.spec_made += 1
                    yield Speculated(peer=k, iteration=t)
            self.inputs_used[t] = inputs

            # 4. Compute X_j(t+1).
            yield ComputeBegin(
                iteration=t, verified_upto=self.verified_upto, fw=self.fw
            )
            new_block = prog.compute(j, inputs, t)
            ops = prog.compute_ops(j)
            spent = yield Charge(ops, phase="compute", iteration=t)
            self.work += ops if spent is None else spent
            self.chain[t + 1] = new_block
            self.frontier = t + 1
            stats.iterations += 1
            self.prune()
            # The transport may respond with its clock (virtual, wall
            # or step time); the seated policy retunes the window on it.
            now = yield IterationDone(iteration=t)
            if self.policy is not None:
                yield from self._retune(t, now)

        # 5. Final verification: wait out all stragglers so every
        #    speculation is checked and corrected before reporting.
        while self.verified_upto < T - 1:
            arrival = yield Recv(
                phase="comm", iteration=T - 1, timeout=self._recv_timeout()
            )
            if arrival is None:
                yield from self._on_recv_timeout()
                continue
            yield from self._on_arrival(arrival) or ()

        return self.block(T)

    # -------------------------------------------------------------- policy
    def _retune(self, t: int, now: Optional[float]) -> Generator:
        """Consult the seated window policy after iteration ``t``.

        ``now`` is the transport's response to ``IterationDone``; a
        transport with no clock (loopback, the model checker) responds
        None and the rank's charged ops plus its waits stand in — a
        pure function of protocol state, so fingerprint dedup stays
        sound.
        """
        policy = self.policy
        assert policy is not None
        if now is None:
            now = self.work + self.overhead + self.wait
        observe_losses = getattr(policy, "observe_losses", None)
        if observe_losses is not None:
            observe_losses(self.stats.retransmits)
        new_fw = policy.on_iteration(
            t, fw=self.fw, now=float(now), wait=self.wait, lag=self.lag,
            work=self.work, overhead=self.overhead, verify=self.verify,
        )
        if new_fw != self.fw:
            old_fw = self.fw
            self.fw = new_fw
            yield WindowChanged(
                iteration=t + 1,
                old_fw=old_fw,
                new_fw=new_fw,
                min_fw=policy.min_fw,
                max_fw=policy.max_fw,
            )
        degraded = getattr(policy, "degraded", None)
        if degraded is not None and bool(degraded) != self._last_degraded:
            self._last_degraded = bool(degraded)
            yield Degraded(
                iteration=t + 1,
                active=self._last_degraded,
                losses=self.stats.retransmits,
            )

    # ----------------------------------------------------------- resilience
    def _backoff(self, attempt: int) -> float:
        """Exponential escalation wait before request ``attempt + 1``."""
        return self.retry_backoff * (2 ** (attempt - 1))

    def _recv_timeout(self) -> Optional[float]:
        """Park bound for blocking receives: one backoff quantum while
        any sequence gap is outstanding, unbounded otherwise."""
        return self.retry_backoff if self._gaps else None

    def _emit_retransmit(self, src: int, seq: int, attempt: int) -> Generator:
        self.stats.retransmits += 1
        yield Retransmit(
            peer=src,
            seq=seq,
            attempt=attempt,
            max_attempts=self.max_retries,
            backoff=self._backoff(attempt),
        )
        if attempt > self.max_retries:
            raise RetransmitExhausted(
                f"rank {self.rank}: message seq {seq} from rank {src} still "
                f"missing after {self.max_retries} retransmit requests"
            )

    def _gap_tick(self, src: int) -> Generator:
        """Open (or escalate, with exponential backoff) ``src``'s gap."""
        missing = self._recv_next.get(src, 0)
        gap = self._gaps.get(src)
        if gap is None or gap[0] != missing:
            self._gaps[src] = [missing, 1, 0]
            yield from self._emit_retransmit(src, missing, 1)
            return
        gap[2] += 1
        if gap[2] >= self._backoff(gap[1]):
            gap[1] += 1
            gap[2] = 0
            yield from self._emit_retransmit(src, missing, gap[1])

    def _on_recv_timeout(self) -> Generator:
        """A bounded receive expired: escalate every open gap."""
        timeout = self._recv_timeout()
        if timeout is not None:
            self.wait += timeout
        for src in sorted(self._gaps):
            yield from self._gap_tick(src)

    # ------------------------------------------------------------- arrivals
    def _on_arrival(self, arrival: Arrival) -> Optional[Generator]:
        """Route one arrival through the resilience layer; the effects it
        causes, or None when it causes none.

        Unsequenced arrivals (``seq < 0``, e.g. the DES wire before
        stamping) pass straight through.  Sequenced ones are suppressed
        as duplicates, parked on a gap, or accepted in order — parked
        successors are replayed the moment the gap heals (:meth:`_heal`),
        so the protocol core below only ever sees the fault-free order.
        An in-order arrival from a sender with no open gap and nothing
        stashed — every arrival of a fault-free run — is handed to
        :meth:`_accept` directly and builds no generator of its own.
        That is exact: no effect that :meth:`_verify` or :meth:`_cascade`
        yields is answered with an arrival, so the sender's stash and
        gaps cannot change while the verification runs.
        """
        self.stats.messages_received += 1
        k = arrival.src
        if k not in self.needed:  # pragma: no cover - audience routing
            return None
        if arrival.seq < 0:
            return self._accept(arrival)
        expected = self._recv_next.get(k, 0)
        if arrival.seq < expected:
            self.stats.dups_suppressed += 1
            return None
        if arrival.seq > expected:
            self._recv_stash.setdefault(k, {})[arrival.seq] = arrival
            return self._gap_tick(k)
        self._recv_next[k] = expected + 1
        if k not in self._gaps and not self._recv_stash.get(k):
            return self._accept(arrival)
        return self._heal(arrival)

    def _heal(self, arrival: Arrival) -> Generator:
        """Accept the in-order ``arrival`` from a sender with an open gap
        or a stash, replay the stashed successors it unblocks, and close
        (or re-open) the sender's gap."""
        k = arrival.src
        yield from self._accept(arrival) or ()
        stash = self._recv_stash.get(k)
        while stash:
            parked = stash.pop(self._recv_next[k], None)
            if parked is None:
                break
            self._recv_next[k] += 1
            yield from self._accept(parked) or ()
        if k in self._gaps:
            if not stash:
                healed = self._gaps.pop(k)
                self._recv_stash.pop(k, None)
                if self.sanitizer is not None:
                    self.sanitizer.on_gap_healed(self.rank, k, healed[0])
            else:
                # The old gap healed but a later seq is still missing:
                # open the follow-up gap with a fresh retry budget.
                yield from self._gap_tick(k)

    def _accept(self, arrival: Arrival) -> Optional[Generator]:
        """Store an in-order arrival and advance the verified horizon;
        the effects of verifying (maybe correcting) the speculation it
        settles, or None when it arrived before it was needed — every
        arrival of a blocking run, which then pays for no generator."""
        k, t, block = arrival.src, arrival.iteration, arrival.payload
        verified = self.verified_upto
        expected = len(self.needed)
        self.actual[(k, t)] = block
        ring = self.history[k]
        ring.append(t, block)
        missing = self.missing
        missing[t] = missing.get(t, expected) - 1
        while missing.get(self.verified_upto + 1, expected) == 0:
            self.verified_upto += 1
        if self.sanitizer is not None:
            self.sanitizer.on_ring_occupancy(self.rank, k, len(ring), ring.capacity)
            # Run-ahead backlog: iterations arrived beyond the verified
            # horizon, bounded at the *policy ceiling* (not the live fw).
            self.sanitizer.on_inbox_depth(
                self.rank, k, t - self.verified_upto, run_ahead_bound(
                    self.policy.max_fw if self.policy is not None else self.fw
                ),
            )
        # Each iteration this arrival completed waited on its transit.
        self.lag += (self.verified_upto - verified) * arrival.latency
        spec = self.spec_used.pop((k, t), None)
        return None if spec is None else self._verify(k, t, spec, block)

    def _book_verify(self, spent: float) -> None:
        self.overhead += spent  # check or correct: no window overlaps it
        self.verify += spent

    def _verify(self, k: int, t: int, spec: Block, actual: Block) -> Generator:
        """Check ``spec`` against the ``actual`` X_k(t); cascade on a reject."""
        prog = self.program
        j = self.rank
        stats = self.stats
        yield Verified(peer=k, iteration=t)
        stats.checks += 1
        own = self.block(t)
        # The check numerics run before their Charge so wall-clock
        # transports attribute the real check time to the right phase;
        # under DES the virtual timeline is identical either way (no
        # effect separates the two).
        error = prog.check(j, k, spec, actual, own)
        accepted = error <= prog.threshold
        if accepted and self.owed:
            self._settle()  # this arrival may have verified an iteration
        ops = prog.check_ops(j, k)
        spent = yield Charge(ops, phase="check", iteration=t)
        self._book_verify(ops if spent is None else spent)
        if accepted:
            stats.spec_accepted += 1
            return
        stats.spec_rejected += 1
        yield from self._cascade(k, t, spec, actual)

    def _cascade(
        self, k: int, t: int, spec: Block, actual: Block
    ) -> Generator:
        """Repair iteration ``t``; recompute everything after it."""
        prog = self.program
        j = self.rank
        stats = self.stats
        yield CascadeBegin(iteration=t)

        # Repair iteration t itself via the (possibly incremental)
        # application correction hook: priced now, run by _settle with
        # the iteration's other rejections.
        inputs = self.inputs_used[t]
        inputs[k] = actual
        ops = prog.correct_ops(j, inputs, k, spec, actual, t)
        self.owed.setdefault(t, []).append((k, spec, actual))
        self._settle(None if self.cascade == "none" else t)
        spent = yield Charge(ops, phase="correct", iteration=t)
        self._book_verify(ops if spent is None else spent)
        stats.recomputes += 1
        yield Corrected(peer=k, iteration=t)

        if self.cascade == "none":
            yield _CASCADE_END
            return

        # Cascade: iterations t+1 .. frontier-1 consumed the old chain.
        for t2 in range(t + 1, self.frontier):
            yield CascadeStep(iteration=t2)
            yield Corrected(peer=k, iteration=t2)
            inputs2 = self.inputs_used[t2]
            inputs2[j] = self.block(t2)
            for k2 in sorted(self.needed):
                if (k2, t2) in self.spec_used:
                    # The ring may grow mid-cascade (arrivals interleave
                    # with the Charge yields), so it is re-read per step.
                    times, values = self.history[k2].series()
                    respec = prog.speculate(j, k2, times, values, t2)
                    ops = prog.speculate_ops(j, k2)
                    spent = yield Charge(ops, phase="correct", iteration=t2)
                    self._book_verify(ops if spent is None else spent)
                    self.spec_used[(k2, t2)] = respec
                    inputs2[k2] = respec
                    stats.spec_made += 1
                    yield Speculated(peer=k2, iteration=t2, in_cascade=True)
            new_block = prog.compute(j, inputs2, t2)
            ops = prog.compute_ops(j)
            spent = yield Charge(ops, phase="correct", iteration=t2)
            self._book_verify(ops if spent is None else spent)
            self.chain[t2 + 1] = new_block
            stats.recomputes += 1
        yield _CASCADE_END


def build_engine(
    program: SyncIterativeProgram,
    rank: int,
    topo: Tuple[Sequence[FrozenSet[int]], Sequence[Sequence[int]]],
    fw: int = 1,
    cascade: "CascadePolicy | str" = CascadePolicy.RECOMPUTE,
    hist_cap: Optional[int] = None,
    policy: Optional[WindowPolicy] = None,
    sanitizer: Optional[object] = None,
    fault_plan: Optional[Any] = None,
) -> SpecEngine:
    """Rank ``rank``'s speculative engine from a run's knobs (called by
    :func:`repro.api.rank_engine`, which every backend shares).
    ``topo`` is :func:`topology`'s result; under a ``fault_plan`` the
    retry budget is the plan's (seating the plan's injection seam
    around the engine is the caller's)."""
    needed, audience = topo
    retry = {} if fault_plan is None else {
        "max_retries": fault_plan.max_retries,
        "retry_backoff": fault_plan.retry_backoff,
    }
    return SpecEngine(
        program, rank, needed[rank], audience[rank],
        fw=fw, cascade=cascade, hist_cap=hist_cap, policy=policy,
        sanitizer=sanitizer, **retry,
    )


class ReceiveDrivenEngine:
    """The Fig. 7 baseline (incremental compute, no speculation) over
    the same effect alphabet and transports as :class:`SpecEngine`.

    Per iteration: broadcast the own block, start the accumulator from
    local state, then absorb each message *as it arrives* (any order);
    when all expected blocks are in, finish the update and move on.
    """

    def __init__(
        self,
        program: IncrementalProgram,
        rank: int,
        needed: FrozenSet[int],
        audience: Sequence[int],
    ) -> None:
        self.program = program
        self.rank = rank
        self.needed = frozenset(needed)
        self.audience = list(audience)
        self.stats = SpecStats(rank=rank)
        self._send_seq: Dict[int, int] = {dst: 0 for dst in self.audience}

    def next_seq(self, dst: int) -> int:
        """Stamp (and advance) the send sequence number for ``dst``."""
        seq = self._send_seq.setdefault(dst, 0)
        self._send_seq[dst] = seq + 1
        return seq

    def run(self) -> Generator:
        """The receive-driven protocol as an effect generator."""
        prog = self.program
        j = self.rank
        T = prog.iterations
        stats = self.stats
        needed = sorted(self.needed)

        own = prog.initial_block(j)
        #: Blocks known for iteration 0 (the initial read).
        initial = {k: prog.initial_block(k) for k in needed}

        for t in range(T):
            if t > 0 and self.audience:
                nbytes = prog.block_nbytes(j)
                for dst in self.audience:
                    yield Send(
                        dst=dst,
                        payload=own,
                        iteration=t,
                        nbytes=nbytes,
                        seq=self.next_seq(dst),
                    )
                    stats.messages_sent += 1
                pack = prog.send_ops(j) * len(self.audience)
                if pack > 0:
                    yield Charge(pack, phase="comm", iteration=t)

            acc = prog.begin(j, own, t)
            yield Charge(prog.begin_ops(j), phase="compute", iteration=t)

            remaining = set(needed)
            while remaining:
                if t == 0:
                    k = remaining.pop()
                    block = initial[k]
                else:
                    arrival = yield Recv(
                        phase="comm", iteration=t, match=(VARS, t)
                    )
                    stats.messages_received += 1
                    k = arrival.src
                    if k not in remaining:  # pragma: no cover - tags prevent
                        raise RuntimeError(f"duplicate block from rank {k}")
                    remaining.discard(k)
                    block = arrival.payload
                acc = prog.absorb(j, acc, k, block, t)
                yield Charge(
                    prog.absorb_ops(j, k), phase="compute", iteration=t
                )

            own = prog.finish(j, acc, own, t)
            yield Charge(prog.finish_ops(j), phase="compute", iteration=t)
            stats.iterations += 1
            yield IterationDone(iteration=t)

        return own
