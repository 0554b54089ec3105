"""The declarative protocol-invariant registry.

One source of truth for every invariant the speculative protocol is
expected to uphold.  Three consumers seat the same registry:

* :class:`repro.engine.sanitizer.ProtocolSanitizer` — the runtime
  seat; checks the invariants it can observe from the effect stream of
  a *single* execution (DES, loopback or pipes).
* :mod:`repro.analysis.modelcheck` (**specmc**) — the exhaustive seat;
  checks every invariant over *all* bounded interleavings, including
  the global ones (deadlock-freedom) a single run cannot witness.
* ``docs/protocol.md`` — the human seat; its invariant catalogue table
  is asserted against this registry by the test suite.

Adding an invariant here is the whole job: give it an id, a summary
and its seats, then implement the check in the seats you declared.
``tests/test_invariants.py`` fails until every declared seat actually
enumerates the id, and the docs test fails until the catalogue row
exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

__all__ = [
    "Invariant",
    "INVARIANTS",
    "EVENT_STATE_MACHINE",
    "MONOTONIC_VIRTUAL_TIME",
    "FORWARD_WINDOW_BOUND",
    "CASCADE_ORDER",
    "VERIFY_WITHOUT_SPECULATE",
    "EVENTUAL_VERIFICATION",
    "SEQUENCE_GAP_FREEDOM",
    "DEADLOCK_FREEDOM",
    "HISTORY_RING_BOUND",
    "WINDOW_POLICY_BOUND",
    "BUFFER_OCCUPANCY_BOUNDED",
    "RETRANSMIT_BOUNDED",
    "sanitizer_invariant_ids",
    "specmc_invariant_ids",
    "require",
]

SEAT_SANITIZER = "sanitizer"
SEAT_SPECMC = "specmc"
_VALID_SEATS = frozenset({SEAT_SANITIZER, SEAT_SPECMC})
_VALID_KINDS = frozenset({"safety", "liveness"})


@dataclass(frozen=True)
class Invariant:
    """A protocol invariant: what must hold, and who checks it."""

    id: str
    title: str
    summary: str
    kind: str  # "safety" | "liveness"
    seats: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"invariant {self.id}: bad kind {self.kind!r}")
        if not self.seats:
            raise ValueError(f"invariant {self.id}: no seats declared")
        bad = self.seats - _VALID_SEATS
        if bad:
            raise ValueError(f"invariant {self.id}: unknown seats {sorted(bad)}")


INVARIANTS: Dict[str, Invariant] = {}


def _register(
    id: str,
    title: str,
    summary: str,
    kind: str,
    seats: Tuple[str, ...],
) -> str:
    if id in INVARIANTS:
        raise ValueError(f"duplicate invariant id {id!r}")
    INVARIANTS[id] = Invariant(
        id=id, title=title, summary=summary, kind=kind, seats=frozenset(seats)
    )
    return id


EVENT_STATE_MACHINE = _register(
    "event-state-machine",
    "Per-rank effect stream follows the protocol grammar",
    "Every rank's effect stream is a word of the Fig. 3 state machine: "
    "drain, pre-send window, sends, post-send window, speculate/compute, "
    "final drain.  Verify/correct events only follow a matching "
    "speculation; compute for iteration t happens at most once outside "
    "a cascade.",
    "safety",
    (SEAT_SANITIZER,),
)

MONOTONIC_VIRTUAL_TIME = _register(
    "monotonic-virtual-time",
    "Per-rank virtual time never decreases",
    "In the DES seat, each rank's charged virtual time is "
    "non-decreasing across effects.  Only the DES transport has a "
    "clock, so only the runtime seat checks this; the sans-I/O engine "
    "itself never reads time (tests/test_specmc.py's pinned state "
    "counts catch an engine that does).",
    "safety",
    (SEAT_SANITIZER,),
)

FORWARD_WINDOW_BOUND = _register(
    "forward-window-bound",
    "Computation never outruns verification by more than FW",
    "When iteration t is computed, verified_upto >= t - max(fw, 1) - 1: "
    "the pre-send window gate actually gated.  A rank that computes "
    "further ahead has silently disabled the trailing verification "
    "loop of Fig. 3.",
    "safety",
    (SEAT_SANITIZER, SEAT_SPECMC),
)

CASCADE_ORDER = _register(
    "cascade-order",
    "Cascade recomputation is in-order and terminates",
    "A correction cascade recomputes iterations in strictly ascending "
    "order, stays within (t, frontier), and ends.  Ascending order "
    "within a finite frontier is the termination argument for the "
    "cascade dynamics of Manita & Simonot.",
    "safety",
    (SEAT_SANITIZER, SEAT_SPECMC),
)

VERIFY_WITHOUT_SPECULATE = _register(
    "verify-without-speculate",
    "Checks consume a matching outstanding speculation",
    "A verify (accept) or correct event for (peer, t) requires an "
    "outstanding speculation for (peer, t): nothing is checked twice, "
    "and nothing unspeculated is ever 'verified'.",
    "safety",
    (SEAT_SANITIZER, SEAT_SPECMC),
)

EVENTUAL_VERIFICATION = _register(
    "eventual-verification",
    "Every speculated value is eventually verified or corrected",
    "At run end no speculation is still outstanding: each speculated "
    "input was resolved by the real message and either accepted "
    "(error <= theta) or corrected.  This is the paper's guarantee "
    "that speculation changes *when* work happens, never *whether* "
    "inputs are checked.",
    "liveness",
    (SEAT_SANITIZER, SEAT_SPECMC),
)

SEQUENCE_GAP_FREEDOM = _register(
    "sequence-gap-freedom",
    "Per-destination send sequence numbers are delivered gap-free",
    "For every (src, dst) channel, delivered Send.seq values are "
    "exactly 0, 1, 2, ... with no gap and no reordering.  This is the "
    "wire-level fact that fixed SPF111: the engine stamps, the "
    "transport preserves, the receiver's history stays FIFO.",
    "safety",
    (SEAT_SANITIZER, SEAT_SPECMC),
)

DEADLOCK_FREEDOM = _register(
    "deadlock-freedom",
    "No reachable state parks every rank forever",
    "In every reachable state, some rank can step: either a rank is "
    "runnable, or an undelivered message can open a blocking Recv.  A "
    "state with unfinished ranks, empty channels and all ranks parked "
    "on blocking receives is a deadlock.  Only the exhaustive seat "
    "can check this - a single run that deadlocks just hangs.",
    "liveness",
    (SEAT_SPECMC,),
)

HISTORY_RING_BOUND = _register(
    "history-ring-bound",
    "Backward-window history stays within its declared capacity",
    "Every HistoryRing holds at most its capacity of (time, block) "
    "pairs and its times are strictly increasing in every reachable "
    "state - the backward window is genuinely bounded memory.",
    "safety",
    (SEAT_SPECMC,),
)


WINDOW_POLICY_BOUND = _register(
    "window-policy-bound",
    "Adaptive windows stay within policy bounds and gate the present",
    "Every WindowChanged announced by a seated window policy lands "
    "within the policy's [min_fw, max_fw], and the forward-window "
    "gates (ComputeBegin.fw) always reflect the *current* window, "
    "never the constructor's: adaptation may move the window, but it "
    "can neither escape its bounds nor leave a stale gate behind.",
    "safety",
    (SEAT_SANITIZER, SEAT_SPECMC),
)


BUFFER_OCCUPANCY_BOUNDED = _register(
    "buffer-occupancy-bounded",
    "Protocol buffers stay within their parameter-derived bounds",
    "While a rank runs, its speculation buffers respect the bounds "
    "derived from the protocol parameters: each "
    "history ring holds at most its capacity of entries, and the "
    "run-ahead backlog (iterations arrived but not yet verified) never "
    "exceeds the FW-derived inbox bound.  A rank exceeding either has "
    "decoupled memory growth from (p, FW, BW) - the paper's windows no "
    "longer bound its state.",
    "safety",
    (SEAT_SANITIZER,),
)


RETRANSMIT_BOUNDED = _register(
    "retransmit-bounded",
    "Lost messages are recovered within the retry budget",
    "Every sequence gap a rank detects is healed by a (re)delivery "
    "before the engine's retransmit timer escalates past its "
    "max_retries budget, and no retransmit request is still "
    "outstanding at run end.  A transport that drops a message and "
    "never answers the retransmit has broken the recovery contract "
    "speculation's progress depends on - the run must be flagged, "
    "not silently wedged.",
    "safety",
    (SEAT_SANITIZER, SEAT_SPECMC),
)


def _seat_ids(seat: str) -> Tuple[str, ...]:
    return tuple(i for i, inv in INVARIANTS.items() if seat in inv.seats)


def sanitizer_invariant_ids() -> Tuple[str, ...]:
    """Ids the runtime :class:`ProtocolSanitizer` seat must enforce."""
    return _seat_ids(SEAT_SANITIZER)


def specmc_invariant_ids() -> Tuple[str, ...]:
    """Ids the exhaustive specmc seat must enforce."""
    return _seat_ids(SEAT_SPECMC)


def require(invariant_id: str) -> Invariant:
    """Look up an id, raising if a seat invents an unregistered one."""
    try:
        return INVARIANTS[invariant_id]
    except KeyError:
        raise KeyError(
            f"unregistered invariant id {invariant_id!r}; declare it in "
            "repro.engine.invariants first"
        ) from None
