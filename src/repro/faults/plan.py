"""The declarative, seeded fault plan.

A :class:`FaultPlan` is data, not behaviour: which edges lose,
duplicate, delay or reorder messages (and at what rate), which ranks
straggle or crash, and over which iteration windows.  The runtime
decisions are made by :mod:`repro.faults.injector` as pure hashes of
``(seed, fault index, src, dst, seq)``, so a plan is exactly as
reproducible as the protocol run it perturbs — same plan, same seed,
same faults, on every backend.

Plans round-trip through plain dicts (:meth:`FaultPlan.to_dict` /
:meth:`FaultPlan.from_dict`) and JSON files (:meth:`FaultPlan.save` /
:meth:`FaultPlan.load`) for the ``repro chaos --plan`` CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: Edge-fault kinds a plan may request.
EDGE_FAULT_KINDS = ("drop", "duplicate", "delay", "reorder")


@dataclass(frozen=True)
class TriggerWindow:
    """Half-open iteration interval ``[start, stop)`` a fault is armed
    in; ``stop`` of None means "until the run ends"."""

    start: int = 0
    stop: Optional[int] = None

    def contains(self, iteration: int) -> bool:
        if iteration < self.start:
            return False
        return self.stop is None or iteration < self.stop

    def to_dict(self) -> Dict[str, Any]:
        return {"start": self.start, "stop": self.stop}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TriggerWindow":
        return cls(start=int(data.get("start", 0)),
                   stop=None if data.get("stop") is None else int(data["stop"]))


@dataclass(frozen=True)
class EdgeFault:
    """One message-level fault on a (src -> dst) edge.

    ``src`` / ``dst`` of None are wildcards (any sender / any
    receiver).  ``rate`` is the per-message firing probability;
    ``delay`` is how many receive polls a delayed message is held
    (ignored by the other kinds).
    """

    kind: str
    rate: float
    src: Optional[int] = None
    dst: Optional[int] = None
    delay: float = 2.0
    window: TriggerWindow = field(default_factory=TriggerWindow)

    def __post_init__(self) -> None:
        if self.kind not in EDGE_FAULT_KINDS:
            raise ValueError(
                f"unknown edge-fault kind {self.kind!r}; "
                f"expected one of {EDGE_FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"edge-fault rate must be in [0, 1], got {self.rate}")
        if self.delay < 0:
            raise ValueError("edge-fault delay must be >= 0")

    def matches(self, src: int, dst: int, iteration: int) -> bool:
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        return self.window.contains(iteration)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind, "rate": self.rate, "src": self.src,
            "dst": self.dst, "delay": self.delay, **self.window.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EdgeFault":
        return cls(
            kind=str(data["kind"]),
            rate=float(data["rate"]),
            src=None if data.get("src") is None else int(data["src"]),
            dst=None if data.get("dst") is None else int(data["dst"]),
            delay=float(data.get("delay", 2.0)),
            window=TriggerWindow.from_dict(data),
        )


@dataclass(frozen=True)
class RankFault:
    """One rank-level fault: straggle by ``slowdown`` inside the
    window, and/or crash when iteration ``crash_at`` completes."""

    rank: int
    slowdown: float = 1.0
    crash_at: Optional[int] = None
    window: TriggerWindow = field(default_factory=TriggerWindow)

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ValueError("slowdown must be >= 1 (a factor, not a rate)")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rank": self.rank, "slowdown": self.slowdown,
            "crash_at": self.crash_at, **self.window.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RankFault":
        return cls(
            rank=int(data["rank"]),
            slowdown=float(data.get("slowdown", 1.0)),
            crash_at=(None if data.get("crash_at") is None
                      else int(data["crash_at"])),
            window=TriggerWindow.from_dict(data),
        )


@dataclass(frozen=True)
class FaultPlan:
    """Everything the fault layer needs, as one frozen value.

    ``retransmit`` controls whether the layer services retransmission
    (both the engine's :class:`~repro.engine.events.Retransmit`
    requests and its own sender-timeout fallback); disabling it models
    a transport with no recovery, which the ``retransmit-bounded``
    invariant must flag.  ``retransmit_delay`` is how long a serviced
    retransmission travels; ``sender_timeout`` is how long the layer
    waits for an engine request before its modelled sender timer fires
    on its own.  Both, like :attr:`EdgeFault.delay`, count the rank's
    receive polls on every backend; a blocked poll lasts at most one
    clock unit of the medium (a loopback round, 1 % of an iteration's
    compute in DES virtual time, one wall second on mp).
    """

    seed: int = 0
    edges: Tuple[EdgeFault, ...] = ()
    ranks: Tuple[RankFault, ...] = ()
    max_retries: int = 4
    retry_backoff: float = 1.0
    retransmit: bool = True
    retransmit_delay: float = 1.0
    sender_timeout: float = 8.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "ranks", tuple(self.ranks))
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.retry_backoff <= 0 or self.retransmit_delay < 0:
            raise ValueError("backoff/delay must be positive")

    # ------------------------------------------------------------- lookups
    def rank_faults_for(self, rank: int) -> Tuple[RankFault, ...]:
        return tuple(f for f in self.ranks if f.rank == rank)

    # --------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "max_retries": self.max_retries,
            "retry_backoff": self.retry_backoff,
            "retransmit": self.retransmit,
            "retransmit_delay": self.retransmit_delay,
            "sender_timeout": self.sender_timeout,
            "edges": [f.to_dict() for f in self.edges],
            "ranks": [f.to_dict() for f in self.ranks],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        return cls(
            seed=int(data.get("seed", 0)),
            edges=tuple(EdgeFault.from_dict(e) for e in data.get("edges", ())),
            ranks=tuple(RankFault.from_dict(r) for r in data.get("ranks", ())),
            max_retries=int(data.get("max_retries", 4)),
            retry_backoff=float(data.get("retry_backoff", 1.0)),
            retransmit=bool(data.get("retransmit", True)),
            retransmit_delay=float(data.get("retransmit_delay", 1.0)),
            sender_timeout=float(data.get("sender_timeout", 8.0)),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class FaultSummary:
    """What one rank's injector actually did — the chaos run's receipt."""

    rank: int
    injected: Dict[str, int] = field(default_factory=dict)
    retransmits_serviced: int = 0
    auto_retransmits: int = 0
    outstanding_losses: int = 0

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rank": self.rank,
            "injected": dict(self.injected),
            "total_injected": self.total_injected,
            "retransmits_serviced": self.retransmits_serviced,
            "auto_retransmits": self.auto_retransmits,
            "outstanding_losses": self.outstanding_losses,
        }


def merge_summaries(summaries: "list[FaultSummary]") -> Dict[str, Any]:
    """Fleet-wide totals for the chaos CLI's recovery report."""
    injected: Dict[str, int] = {}
    for s in summaries:
        for kind, n in s.injected.items():
            injected[kind] = injected.get(kind, 0) + n
    return {
        "injected": injected,
        "total_injected": sum(injected.values()),
        "retransmits_serviced": sum(s.retransmits_serviced for s in summaries),
        "auto_retransmits": sum(s.auto_retransmits for s in summaries),
        "outstanding_losses": sum(s.outstanding_losses for s in summaries),
        "per_rank": [s.to_dict() for s in summaries],
    }
