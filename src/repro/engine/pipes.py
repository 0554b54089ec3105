"""Pipe transport: the engine on real OS processes.

Interprets the engine's effects against
:class:`multiprocessing.connection.Connection` pipes, with injected
per-message latency standing in for the paper's slow Ethernet.

Delivery-time gating, no busy-wait
----------------------------------
Injected latency is enforced at the *receiver*: each wire message
carries its wall-clock send stamp, and when the receiver pumps it off
the pipe it draws the message's delay from the run's
:class:`~repro.netsim.latency.LatencyModel` — the model the
simulator's networks draw from, so a jitter stream or a
:class:`~repro.netsim.latency.Spike` means the same on both clocks.
The message does not count as arrived until send stamp + delay
passes, exactly how the simulator's delay networks behave.  The
difference is the message's transit time, reported as
``Arrival.latency``.  Blocking receives park in
:func:`multiprocessing.connection.wait` until new bytes arrive, or,
with a stamp pending, in ``select.select`` until it matures (to the
microsecond: ``connection.wait`` would round up to the millisecond);
there is **no sleep-poll loop** (the old ``_Mailbox.take_blocking``
spun at 1e-4 s), so a blocked worker burns ~zero CPU — asserted by
``tests/test_engine_pipes.py``.

Sequenced, FIFO-restored delivery (the SPF111 fix)
--------------------------------------------------
Every message carries the engine's per-destination sequence number.
The receiver checks contiguity per peer (a gap or repeat raises
:class:`~repro.engine.transport.TransportError` instead of silently
mismatching conversations) and *floors each stamp at its
predecessor's*: jitter can no longer reorder one peer's ``vars``
stream in front of a wildcard receive, which was specflow's SPF111
race.  The channel behaves as FIFO-with-variable-delay, matching the
protocol's happens-before model.
"""

from __future__ import annotations

import select
import time
from multiprocessing import connection
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.engine.events import VARS, Arrival, Charge, Recv, Send, TryRecv
from repro.engine.observer import RankObserver
from repro.engine.sanitizer import ProtocolSanitizer, resolve_sanitizer
from repro.engine.transport import TransportError
from repro.netsim.latency import ConstantLatency, LatencyModel
from repro.trace.events import TraceEvent
from repro.trace.phases import PhaseTrace

#: One buffered in-box entry:
#: (effective_deliver_at, wire_seq, iteration, payload, transit).
_Pending = Tuple[float, int, int, Any, float]


class PipeTransport:
    """One worker's bridge between a sans-I/O engine and real pipes.

    Parameters
    ----------
    rank:
        This worker's rank (event attribution).
    conns:
        peer rank -> duplex :class:`Connection`.
    latency:
        The run's :class:`~repro.netsim.latency.LatencyModel`, in wall
        seconds; it is asked once per message, with the send stamp on
        this rank's protocol clock (None = no injected delay).
    record_events:
        Record protocol :class:`TraceEvent` s (times relative to
        :meth:`start`) for ``repro analyze --trace`` replay.
    sanitize:
        Run under the :class:`~repro.engine.sanitizer.ProtocolSanitizer`
        (same runtime seat as the DES and loopback backends); ``None``
        (default) defers to the ``REPRO_SANITIZE`` environment variable.
    """

    def __init__(
        self,
        rank: int,
        conns: Mapping[int, Any],
        latency: Optional[LatencyModel] = None,
        record_events: bool = False,
        sanitize: Optional[bool] = None,
    ) -> None:
        self.rank = rank
        self._conns: Dict[int, Any] = dict(conns)
        self._src_by_conn = {id(conn): src for src, conn in self._conns.items()}
        self._wait_list: List[Any] = list(self._conns.values())
        self.latency = latency if latency is not None else ConstantLatency(0.0)
        self.sanitizer: Optional[ProtocolSanitizer] = resolve_sanitizer(sanitize)
        #: Per-peer FIFO of gated messages, already sequence-checked.
        self._inbox: Dict[int, List[_Pending]] = {src: [] for src in self._conns}
        #: Next expected wire sequence number per peer.
        self._expected_seq: Dict[int, int] = {src: 0 for src in self._conns}
        #: FIFO floor: a message never becomes deliverable before its
        #: per-peer predecessor (kills jitter-induced reordering).
        self._deliver_floor: Dict[int, float] = {src: 0.0 for src in self._conns}
        self.events: List[TraceEvent] = []
        self._event_seq = 0
        #: Phase rows in wall seconds since :meth:`start`: one per
        #: charge and per blocking receive.
        self.trace = PhaseTrace(rank)
        self.t0 = time.monotonic()
        self._mark = self.t0
        #: The rank's observer seat (and trace sink, when recording).
        self.observer = RankObserver(
            rank,
            sanitizer=self.sanitizer,
            record=self._emit if record_events else None,
        )

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Re-stamp the protocol start (call right after the barrier)."""
        self.t0 = time.monotonic()
        self._mark = self.t0
        self._event_seq = 0
        self.events.clear()

    @property
    def wall_seconds(self) -> float:
        """Wall time since :meth:`start`, answered to ``IterationDone``:
        the seated window policy adapts on real blocked-in-select time
        here."""
        return time.monotonic() - self.t0

    def finish(self) -> None:
        """Protocol is over: run the sanitizer's end-of-run checks
        (outstanding speculations = an eventual-verification violation).
        Call after :func:`~repro.engine.transport.drive` returns."""
        if self.sanitizer is not None:
            self.sanitizer.on_run_end()

    # ------------------------------------------------------------- handlers
    def send(self, effect: Send) -> None:
        record = self.observer.record
        if record is not None:
            record("send", effect.dst, effect.family, effect.iteration, ())
        conn = self._conns.get(effect.dst)
        if conn is None:
            raise TransportError(f"no pipe to rank {effect.dst}")
        conn.send((effect.seq, time.monotonic(), effect.iteration,
                   effect.payload))

    def charge(self, effect: Charge) -> float:
        """Attribute the wall time since the last boundary to the phase,
        and return it.

        The numerics whose declared cost this is have just executed
        inside the engine, so the elapsed real time *is* the phase's
        cost on this backend; ``effect.ops`` is deliberately unused.
        A straggler ``effect.factor`` stretches that time by sleeping
        the difference — what a genuinely slow rank shows the timeline.
        """
        now = time.monotonic()
        if effect.factor > 1.0:
            time.sleep((now - self._mark) * (effect.factor - 1.0))
            now = time.monotonic()
        self.trace.record(
            effect.phase, self._mark - self.t0, now - self.t0, effect.iteration)
        spent, self._mark = now - self._mark, now
        return spent

    def try_recv(self, _effect: TryRecv) -> Optional[Arrival]:
        self._pump()
        return self._pop_deliverable(time.monotonic(), match=None)

    def recv(self, effect: Recv) -> Optional[Arrival]:
        entry = time.monotonic()
        deadline = None if effect.timeout is None else entry + effect.timeout
        while True:
            self._pump()
            now = time.monotonic()
            arrival = self._pop_deliverable(now, match=effect.match)
            if arrival is not None:
                end = time.monotonic()
                self.trace.record(
                    effect.phase, entry - self.t0, end - self.t0, effect.iteration)
                self._mark = end
                return Arrival(
                    src=arrival.src, iteration=arrival.iteration,
                    payload=arrival.payload, waited=end - entry,
                    seq=arrival.seq, latency=arrival.latency,
                )
            if deadline is not None and now >= deadline:
                # Bounded park expired empty (the engine's retransmit
                # timer under fault injection): attribute the wait and
                # let the engine escalate.
                self.trace.record(
                    effect.phase, entry - self.t0, now - self.t0, effect.iteration)
                self._mark = now
                return None
            # Park until new bytes arrive or the earliest gated message
            # matures.  No polling loop: a pure latency wait is one
            # sleep to a deadline.
            timeout = self._next_maturity(now)
            if deadline is not None:
                remaining = max(0.0, deadline - now)
                timeout = remaining if timeout is None else min(timeout, remaining)
            if timeout is None:
                connection.wait(self._wait_list)
            else:
                # `connection.wait` is poll(2), which rounds a timeout up
                # to the next millisecond; select(2) parks to the stamp.
                select.select(self._wait_list, (), (), timeout)

    # ------------------------------------------------------------- internals
    def _pump(self) -> None:
        """Drain every pipe into the sequence-checked, gated inbox."""
        for src, conn in self._conns.items():
            while conn.poll():
                seq, sent, iteration, payload = conn.recv()
                expected = self._expected_seq[src]
                if seq != expected:
                    raise TransportError(
                        f"rank {self.rank}: wire sequence break from rank "
                        f"{src}: got seq {seq}, expected {expected}"
                    )
                self._expected_seq[src] = expected + 1
                delay = self.latency.delay(src, self.rank, sent - self.t0)
                effective = max(sent + delay, self._deliver_floor[src])
                self._deliver_floor[src] = effective
                self._inbox[src].append(
                    (effective, seq, iteration, payload, effective - sent))

    def _pop_deliverable(
        self, now: float, match: Optional[Tuple[str, int]]
    ) -> Optional[Arrival]:
        """Oldest matured message, respecting per-peer FIFO order."""
        best_src: Optional[int] = None
        best_at = float("inf")
        for src in self._inbox:
            queue = self._inbox[src]
            if not queue:
                continue
            effective, _seq, iteration, _payload, _transit = queue[0]
            if effective > now:
                continue
            if match is not None and (VARS, iteration) != match:
                continue
            if effective < best_at or (effective == best_at
                                       and (best_src is None or src < best_src)):
                best_src, best_at = src, effective
        if best_src is None:
            return None
        _effective, seq, iteration, payload, transit = (
            self._inbox[best_src].pop(0))
        record = self.observer.record
        if record is not None:
            record("recv", best_src, VARS, iteration, (seq,))
        if self.sanitizer is not None:
            self.sanitizer.on_delivery(self.rank, best_src, seq)
        return Arrival(src=best_src, iteration=iteration, payload=payload,
                       seq=seq, latency=transit)

    def _next_maturity(self, now: float) -> Optional[float]:
        """Seconds until the earliest gated message matures (None =
        nothing buffered; wait for bytes indefinitely)."""
        stamps = [queue[0][0] for queue in self._inbox.values() if queue]
        if not stamps:
            return None
        return max(0.0, min(stamps) - now)

    def _emit(
        self, kind: str, peer: Optional[int], family: Optional[str],
        iteration: Optional[int], args: Tuple[int, ...],
    ) -> None:
        # Opt-in recording buffer living exactly one worker run; the
        # parent drains it into the run's EventLog.
        self.events.append(
            TraceEvent(
                rank=self.rank, seq=self._event_seq, kind=kind,
                time=time.monotonic() - self.t0,
                peer=peer, family=family, iteration=iteration, args=args,
            )
        )
        self._event_seq += 1


def full_mesh(ctx: Any, p: int) -> Dict[int, Dict[int, Any]]:
    """Duplex pipe mesh: ``mesh[i][j]`` is i's endpoint to j."""
    mesh: Dict[int, Dict[int, Any]] = {i: {} for i in range(p)}
    for i in range(p):
        for j in range(i + 1, p):
            a, b = ctx.Pipe(duplex=True)
            mesh[i][j] = a
            mesh[j][i] = b
    return mesh


def close_mesh(endpoints: Iterable[Any]) -> None:
    """Best-effort close of a set of pipe endpoints."""
    for conn in endpoints:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
