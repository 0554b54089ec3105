"""The per-rank fault core behind the fault seam.

One :class:`FaultInjector` sits on a single rank's receive path.  It
filters every wire arrival through the plan's edge faults, retains
dropped messages in a retransmit buffer (the modelled sender keeps a
copy until it is acknowledged), schedules duplicate / delayed /
retransmitted re-deliveries against its receive-poll clock, and answers
the engine's :class:`~repro.engine.events.Retransmit` requests.

Every decision is ``_roll(seed, fault_index, src, dst, seq)`` — a
pure hash, no RNG state — so the same plan produces byte-identical
fault schedules on the loopback, DES and pipes backends regardless of
timing, and re-running a chaos experiment replays it exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Any, Dict, List, Tuple

from repro.engine.events import Arrival, FaultInjected
from repro.faults.plan import FaultPlan, FaultSummary


class InjectedCrash(RuntimeError):
    """A :class:`~repro.faults.plan.RankFault` killed this rank."""


def _roll(seed: int, *key: Any) -> float:
    """Deterministic uniform [0, 1) from the plan seed and a fault key."""
    digest = hashlib.blake2b(
        repr((seed,) + key).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


class FaultInjector:
    """Applies one :class:`FaultPlan` on one rank's receive path.

    The clock is the receive-poll counter: the seam calls
    :meth:`tick` once per poll of the rank's receive path and gets back
    the re-deliveries that matured.
    """

    def __init__(self, plan: FaultPlan, rank: int) -> None:
        self.plan = plan
        self.rank = rank
        self.clock = 0.0
        #: (src, seq) -> (arrival, lost_at_clock): the retransmit buffer.
        self.lost: Dict[Tuple[int, int], Tuple[Arrival, float]] = {}
        #: Scheduled re-deliveries: (ready_at, order, arrival) kept sorted.
        self._scheduled: List[Tuple[float, int, Arrival]] = []
        self._order = 0
        #: src -> (held arrival, held_at): reorder swap awaiting the
        #: next same-src message (released by timer if none comes).
        self._reorder_hold: Dict[int, Tuple[Arrival, float]] = {}
        self._injected: Dict[str, int] = {}
        self._retransmits_serviced = 0
        self._auto_retransmits = 0

    # -------------------------------------------------------------- filtering
    def _pick_fault(self, src: int, seq: int, iteration: int):
        for index, fault in enumerate(self.plan.edges):
            if not fault.matches(src, self.rank, iteration):
                continue
            if _roll(self.plan.seed, index, src, self.rank, seq) < fault.rate:
                return fault
        return None

    def _record(self, kind: str) -> None:
        self._injected[kind] = self._injected.get(kind, 0) + 1

    def _schedule(self, arrival: Arrival, ready_at: float) -> None:
        self._order += 1
        self._scheduled.append((ready_at, self._order, arrival))
        self._scheduled.sort()

    def admit(
        self, arrival: Arrival
    ) -> Tuple[List[Arrival], List[FaultInjected]]:
        """Filter one wire arrival; returns (deliverable now, events).

        Requires a sequenced arrival (``seq >= 0``): the seq is both
        the fault-decision key and the retransmit-buffer key.
        """
        if arrival.seq < 0:
            raise ValueError("fault injection requires sequenced arrivals")
        src, seq = arrival.src, arrival.seq
        deliver: List[Arrival] = []
        events: List[FaultInjected] = []
        fault = self._pick_fault(src, seq, arrival.iteration)
        if fault is not None:
            events.append(
                FaultInjected(
                    kind=fault.kind, src=src, seq=seq,
                    iteration=arrival.iteration,
                )
            )
            self._record(fault.kind)
            if fault.kind == "drop":
                self.lost[(src, seq)] = (arrival, self.clock)
            elif fault.kind == "duplicate":
                deliver.append(arrival)
                self._schedule(
                    replace(arrival, waited=0.0),
                    self.clock + self.plan.retransmit_delay,
                )
            elif fault.kind == "delay":
                self._schedule(
                    replace(arrival, waited=0.0), self.clock + fault.delay
                )
            elif fault.kind == "reorder":
                held = self._reorder_hold.pop(src, None)
                if held is not None:
                    # Two holds in a row: release the older one first.
                    deliver.append(replace(held[0], waited=0.0))
                self._reorder_hold[src] = (arrival, self.clock)
        else:
            deliver.append(arrival)
        if fault is None or fault.kind != "reorder":
            held = self._reorder_hold.pop(src, None)
            if held is not None:
                # The swap the reorder fault was waiting for.
                deliver.append(replace(held[0], waited=0.0))
        return deliver, events

    # ----------------------------------------------------------------- clock
    def tick(self) -> List[Arrival]:
        """Advance the clock by one receive poll; return matured
        re-deliveries.

        Also fires the modelled sender's own retransmit timer for
        losses the engine has not (successfully) requested within
        ``plan.sender_timeout``.
        """
        self.clock += 1.0
        if self.plan.retransmit:
            overdue = [
                key for key, (_, lost_at) in self.lost.items()
                if self.clock - lost_at >= self.plan.sender_timeout
            ]
            for key in sorted(overdue):
                arrival, _ = self.lost.pop(key)
                self._auto_retransmits += 1
                self._schedule(
                    replace(arrival, waited=0.0),
                    self.clock + self.plan.retransmit_delay,
                )
        stale = [
            src for src, (_, held_at) in self._reorder_hold.items()
            if self.clock - held_at >= self.plan.sender_timeout
        ]
        for src in sorted(stale):
            # No swap partner ever came; degrade the reorder to a delay.
            held, _ = self._reorder_hold.pop(src)
            self._schedule(replace(held, waited=0.0), self.clock)
        ready: List[Arrival] = []
        while self._scheduled and self._scheduled[0][0] <= self.clock:
            ready.append(self._scheduled.pop(0)[2])
        return ready

    def on_retransmit_request(self, src: int, seq: int) -> bool:
        """Service an engine retransmit request from the loss buffer.

        Returns True when a re-delivery was scheduled.  Unknown keys
        (the message was merely delayed/reordered and is still in
        flight, or was already retransmitted) are ignored; with
        ``plan.retransmit`` off nothing is ever serviced — the
        configuration the ``retransmit-bounded`` invariant exists to
        flag.
        """
        if not self.plan.retransmit:
            return False
        entry = self.lost.pop((src, seq), None)
        if entry is None:
            return False
        self._retransmits_serviced += 1
        self._schedule(
            replace(entry[0], waited=0.0),
            self.clock + self.plan.retransmit_delay,
        )
        return True

    def outstanding(self) -> bool:
        """Any message still held (lost, scheduled, or reorder-parked)?"""
        return bool(self.lost or self._scheduled or self._reorder_hold)

    # ------------------------------------------------------------ rank faults
    def slowdown_for(self, iteration: int) -> float:
        factor = 1.0
        for fault in self.plan.rank_faults_for(self.rank):
            if fault.window.contains(iteration):
                factor = max(factor, fault.slowdown)
        return factor

    def crash_due(self, iteration: int) -> bool:
        return any(
            fault.crash_at == iteration
            for fault in self.plan.rank_faults_for(self.rank)
        )

    # ---------------------------------------------------------------- report
    def summary(self) -> FaultSummary:
        return FaultSummary(
            rank=self.rank,
            injected=dict(self._injected),
            retransmits_serviced=self._retransmits_serviced,
            auto_retransmits=self._auto_retransmits,
            outstanding_losses=len(self.lost),
        )
