"""The observer seat: one rank's protocol events, fanned out once.

The engine reports what it does -- speculate, compute, verify,
correct, the cascade markers, window changes, retransmit requests --
by calling the :class:`RankObserver` its runner passed to
``run(observer)``; the fault layer reports each injected fault the
same way.  Each method leaves the method's trace record, if the
backend records one, then makes its
:class:`~repro.engine.sanitizer.ProtocolSanitizer` call, if one is
armed.  A backend contributes only its sanitizer and a ``record``
sink that stamps its own clock (the runner's ``send`` / ``recv``
records go through the same sink).  Each record carries what its
call's sanitizer check reads, and :data:`REPLAYED` makes that call
again from the record: replaying a recorded trace
(:mod:`repro.analysis.replay`) is running an observer over it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.events import VARS
from repro.trace.events import TraceEvent


class RankObserver:
    """One rank's seat on the protocol event stream.

    ``sanitizer`` (optional) is called by each method below;
    ``record(kind, peer, family, iteration, args)`` is the backend's
    trace sink (it stamps rank and time; None when tracing is off).
    A method records before it checks, so a violating run's trace ends
    at the call that violated.
    """

    def __init__(
        self,
        rank: int,
        sanitizer: Any = None,
        record: Optional[Callable[..., Any]] = None,
    ) -> None:
        self.rank = rank
        self.sanitizer = sanitizer
        self.record = record
        #: (iteration, fw) trajectory: the initial window (see
        #: :meth:`begin`), then one entry per :meth:`window_changed`.
        self.window_history: List[Tuple[int, int]] = []
        #: The iteration the open correction cascade repaired first.
        self.cascade = -1

    def begin(self, engine: Any) -> None:
        """Seed the trajectory with ``engine``'s initial window (0 for
        engines without one, i.e. the receive-driven baseline)."""
        self.window_history = [(0, getattr(engine, "fw", 0))]

    # ------------------------------------------------ the engine's calls
    def speculated(self, peer: int, iteration: int) -> None:
        """A missing input was predicted from ``peer``'s history ring."""
        if self.record is not None:
            self.record("speculate", peer, VARS, iteration, ())
        if self.sanitizer is not None:
            self.sanitizer.on_speculate(self.rank, peer, iteration)

    def respeculated(self, peer: int, iteration: int) -> None:
        """A cascade step predicted the input again: checked, but not a
        record of its own (the enclosing ``correct`` covers the step)."""
        if self.sanitizer is not None:
            self.sanitizer.on_speculate(self.rank, peer, iteration)

    def compute_begin(self, iteration: int, verified_upto: int, fw: int) -> None:
        """One iteration's compute step is entered (forward-window probe)."""
        if self.record is not None:
            self.record("compute", None, None, iteration, (verified_upto, fw))
        if self.sanitizer is not None:
            self.sanitizer.on_compute_begin(self.rank, iteration, verified_upto, fw)

    def verified(self, peer: int, iteration: int) -> None:
        """A speculated input is about to be checked against the actual."""
        if self.record is not None:
            self.record("verify", peer, VARS, iteration, ())
        if self.sanitizer is not None:
            self.sanitizer.on_verify(self.rank, peer, iteration)

    def cascade_begin(self, iteration: int) -> None:
        """A correction cascade opens by repairing ``iteration``."""
        self.cascade = iteration
        if self.sanitizer is not None:
            self.sanitizer.on_cascade_begin(self.rank, iteration)

    def cascade_step(self, iteration: int) -> None:
        """The cascade recomputes ``iteration`` (strictly ascending)."""
        if self.sanitizer is not None:
            self.sanitizer.on_cascade_step(self.rank, iteration)

    def corrected(self, peer: int, iteration: int) -> None:
        """The cascade's repair or step at ``iteration`` is booked; the
        record carries the cascade's first iteration."""
        if self.record is not None:
            self.record("correct", peer, VARS, iteration, (self.cascade,))

    def cascade_end(self) -> None:
        """The correction cascade closed."""
        if self.sanitizer is not None:
            self.sanitizer.on_cascade_end(self.rank)

    def window_changed(
        self, iteration: int, old_fw: int, new_fw: int, min_fw: int, max_fw: int,
    ) -> None:
        """The seated window policy moved FW from ``iteration`` on; the
        bounds ride along for the ``window-policy-bound`` check."""
        self.window_history.append((iteration, new_fw))
        if self.record is not None:
            self.record("window", new_fw, None, iteration, (old_fw, min_fw, max_fw))
        if self.sanitizer is not None:
            self.sanitizer.on_window_changed(
                self.rank, iteration, old_fw, new_fw, min_fw, max_fw)

    def degraded(self, iteration: int, active: bool) -> None:
        """The seated :class:`~repro.policy.DegradedWindow` collapsed FW
        under persistent loss (``active``) or handed control back."""
        if self.record is not None:
            self.record("degraded", int(active), None, iteration, ())

    def retransmit(self, peer: int, seq: int, attempt: int, max_attempts: int) -> None:
        """The engine asks ``peer`` again for its ``seq``-th message."""
        if self.record is not None:
            self.record("retransmit", peer, VARS, seq, (attempt, max_attempts))
        if self.sanitizer is not None:
            self.sanitizer.on_retransmit(self.rank, peer, seq, attempt, max_attempts)

    def fault(self, src: int, seq: int, iteration: int) -> None:
        """The fault layer perturbed the ``seq``-th message from ``src``."""
        if self.record is not None:
            self.record("fault", src, VARS, iteration, (seq,))

    # ------------- what only the sanitizer reads: called when one is armed
    def ring_occupancy(self, peer: int, occupancy: int, capacity: int) -> None:
        self.sanitizer.on_ring_occupancy(self.rank, peer, occupancy, capacity)

    def inbox_depth(self, peer: int, depth: int, bound: int) -> None:
        self.sanitizer.on_inbox_depth(self.rank, peer, depth, bound)

    def gap_healed(self, peer: int, seq: int) -> None:
        self.sanitizer.on_gap_healed(self.rank, peer, seq)


def _replay_correct(obs: RankObserver, ev: TraceEvent) -> None:
    """A ``correct`` record is its cascade's repair when its iteration
    is the cascade's first, else a step; the ``corrected`` that wrote
    it follows either."""
    if ev.iteration == ev.args[0]:
        obs.cascade_begin(ev.iteration)
    else:
        obs.cascade_step(ev.iteration)
    obs.corrected(ev.peer, ev.iteration)


#: Record kind -> the observer call(s) that made the record, as far as
#: the record carries their arguments.
REPLAYED: Dict[str, Callable[[RankObserver, TraceEvent], None]] = {
    "speculate": lambda obs, ev: obs.speculated(ev.peer, ev.iteration),
    "compute": lambda obs, ev: obs.compute_begin(ev.iteration, *ev.args),
    "verify": lambda obs, ev: obs.verified(ev.peer, ev.iteration),
    "correct": _replay_correct,
    "window": lambda obs, ev: obs.window_changed(
        ev.iteration, ev.args[0], ev.peer, ev.args[1], ev.args[2]),
    "degraded": lambda obs, ev: obs.degraded(ev.iteration, bool(ev.peer)),
    "retransmit": lambda obs, ev: obs.retransmit(ev.peer, ev.iteration, *ev.args),
    "fault": lambda obs, ev: obs.fault(ev.peer, ev.args[0], ev.iteration),
}
