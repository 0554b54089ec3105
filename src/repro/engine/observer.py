"""The observer seat: one rank's protocol events, fanned out once.

Every backend hands the effects it does not interpret itself
(everything but ``Send`` / ``Recv`` / ``TryRecv`` / ``Charge``) to a
:class:`RankObserver`.  What an effect means to the runtime
:class:`~repro.analysis.sanitizer.ProtocolSanitizer` and which trace
record it leaves is one table, :data:`OBSERVED`; a backend contributes
only its sanitizer, a ``record`` sink that stamps its own clock, and
the ``clock`` answered to ``IterationDone``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.events import (
    VARS,
    CascadeBegin,
    CascadeEnd,
    CascadeStep,
    ComputeBegin,
    Corrected,
    Degraded,
    FaultInjected,
    IterationDone,
    Retransmit,
    Speculated,
    Verified,
    WindowChanged,
)

#: effect type -> (sanitizer call or None, trace record or None).  The
#: call takes ``(sanitizer, rank, effect)``; the record maps the effect
#: to ``(kind, peer, family, iteration)``, or to None when this effect
#: leaves none (cascade re-speculations: the enclosing ``correct``
#: event already covers the step).
OBSERVED: Dict[type, Tuple[Optional[Callable], Optional[Callable]]] = {
    Speculated: (
        lambda san, rank, e: san.on_speculate(rank, e.peer, e.iteration),
        lambda e: None if e.in_cascade
        else ("speculate", e.peer, VARS, e.iteration),
    ),
    ComputeBegin: (
        lambda san, rank, e: san.on_compute_begin(
            rank, e.iteration, e.verified_upto, e.fw),
        lambda e: ("compute", None, None, e.iteration),
    ),
    Verified: (
        lambda san, rank, e: san.on_verify(rank, e.peer, e.iteration),
        lambda e: ("verify", e.peer, VARS, e.iteration),
    ),
    Corrected: (None, lambda e: ("correct", e.peer, VARS, e.iteration)),
    CascadeBegin: (
        lambda san, rank, e: san.on_cascade_begin(rank, e.iteration), None),
    CascadeStep: (
        lambda san, rank, e: san.on_cascade_step(rank, e.iteration), None),
    CascadeEnd: (lambda san, rank, e: san.on_cascade_end(rank), None),
    IterationDone: (None, None),
    WindowChanged: (
        lambda san, rank, e: san.on_window_changed(
            rank, e.iteration, e.old_fw, e.new_fw, e.min_fw, e.max_fw),
        lambda e: ("window", e.new_fw, None, e.iteration),
    ),
    FaultInjected: (None, lambda e: ("fault", e.src, VARS, e.iteration)),
    Retransmit: (
        lambda san, rank, e: san.on_retransmit(
            rank, e.peer, e.seq, e.attempt, e.max_attempts),
        lambda e: ("retransmit", e.peer, VARS, e.seq),
    ),
    Degraded: (
        None, lambda e: ("degraded", int(e.active), None, e.iteration)),
}


class RankObserver:
    """One rank's seat on the protocol event stream.

    ``sanitizer`` (optional) is fed through :data:`OBSERVED`;
    ``record(kind, peer, family, iteration)`` is the backend's trace
    sink (it stamps rank and time; None when tracing is off);
    ``clock()`` is the backend's reading answered to ``IterationDone``
    — the seated window policy's timebase (without one, as on loopback
    and in the model checker, the answer is None and the engine falls
    back to its charged ops plus its waits).
    """

    def __init__(
        self,
        rank: int,
        sanitizer: Any = None,
        record: Optional[Callable[..., Any]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.rank = rank
        self.sanitizer = sanitizer
        self.record = record
        self.clock = clock
        #: (iteration, fw) trajectory: the initial window (see
        #: :meth:`begin`), then one entry per ``WindowChanged``.
        self.window_history: List[Tuple[int, int]] = []

    def begin(self, engine: Any) -> None:
        """Seed the trajectory with ``engine``'s initial window (0 for
        engines without one, i.e. the receive-driven baseline)."""
        self.window_history = [(0, getattr(engine, "fw", 0))]

    def notify(self, effect: Any) -> Optional[float]:
        """Observe one effect; the clock reading for ``IterationDone``,
        None for everything else."""
        kind = type(effect)
        if kind is IterationDone:
            return None if self.clock is None else self.clock()
        if kind is WindowChanged:
            self.window_history.append((effect.iteration, effect.new_fw))
        san = self.sanitizer
        record = self.record
        if san is None and record is None:
            return None
        check, trace = OBSERVED[kind]
        if san is not None and check is not None:
            check(san, self.rank, effect)
        if record is not None and trace is not None:
            entry = trace(effect)
            if entry is not None:
                record(*entry)
        return None
