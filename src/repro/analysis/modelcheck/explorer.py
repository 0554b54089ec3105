"""The explicit-state search: DFS over schedules with sleep sets and
state-fingerprint deduplication.

The search space is the tree of schedule prefixes over
:class:`~repro.analysis.modelcheck.model.Action`\\ s.  Because
generators cannot be snapshotted, the search is *stateless* (replay
based): going deeper extends the one live
:class:`~repro.analysis.modelcheck.model.Execution` by a single
action; backtracking rebuilds it by replaying the (short, bounded)
prefix.  Two reductions keep the bounded configs in CI time:

**Sleep sets** (dynamic partial-order reduction).  Two actions are
independent iff they resume *different* ranks: a delivery pops the
head of one ``(src, dst)`` FIFO and advances only ``dst``; another
rank's action can at most append at some tail, which changes no head
and no enabledness of the first.  (Per-destination FIFO — the
``Send.seq`` discipline — is exactly what makes head-pops commute.)
After exploring action ``a`` at a node, every already-explored sibling
``b`` independent of ``a`` goes into the child's sleep set: the
``b``-then-``a`` interleaving is a permutation of ``a``-then-``b`` and
need not be explored again.  Sleep sets on top of a full enabled-set
expansion are a sound reduction: they only prune transitions provably
leading to already-covered states.

**Fingerprint dedup.**  Different interleavings converge on identical
protocol states; :meth:`Execution.fingerprint` detects that and the
search stops re-expanding.  Combining dedup with sleep sets needs
care (a cached state may have been explored under a *larger* sleep
set): the visited table stores the sleep set each fingerprint was
expanded with, prunes only when the new sleep set is a superset, and
otherwise re-expands under the intersection — the standard sound
composition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.analysis.modelcheck.model import (
    Action,
    Execution,
    McViolation,
    Mutation,
    resolve_mutation,
)
from repro.analysis.modelcheck.scenario import McConfig

__all__ = ["Budget", "McResult", "explore"]


@dataclass(frozen=True)
class Budget:
    """Search limits: state count and/or wall seconds."""

    max_states: Optional[int] = None
    max_seconds: Optional[float] = None

    @staticmethod
    def parse(spec: str) -> "Budget":
        """``"60s"`` / ``"2m"`` → seconds; a bare integer → states."""
        text = spec.strip().lower()
        try:
            if text.endswith("ms"):
                return Budget(max_seconds=float(text[:-2]) / 1000.0)
            if text.endswith("s"):
                return Budget(max_seconds=float(text[:-1]))
            if text.endswith("m"):
                return Budget(max_seconds=float(text[:-1]) * 60.0)
            return Budget(max_states=int(text))
        except ValueError:
            raise ValueError(
                f"bad budget {spec!r}: use e.g. '60s', '2m' or a state count"
            ) from None

    def exceeded(self, states: int, elapsed: float) -> bool:
        if self.max_states is not None and states >= self.max_states:
            return True
        if self.max_seconds is not None and elapsed >= self.max_seconds:
            return True
        return False


@dataclass
class McResult:
    """Outcome of one :func:`explore` run."""

    config: McConfig
    mutation: Optional[str]
    explored: int = 0          #: distinct states (by fingerprint)
    deduped: int = 0           #: fingerprint hits (re-expansion avoided)
    sleep_pruned: int = 0      #: transitions removed by sleep sets
    transitions: int = 0       #: actions applied during the search
    executions: int = 0        #: replays performed (root + backtracks)
    max_depth: int = 0         #: longest schedule reached
    exhausted: bool = False    #: True iff the full space was covered
    elapsed: float = 0.0
    violation: Optional[McViolation] = None
    shrunk_schedule: Optional[Tuple[Action, ...]] = None

    @property
    def clean(self) -> bool:
        return self.violation is None

    def counterexample_schedule(self) -> Optional[Tuple[Action, ...]]:
        """The shrunk schedule when available, else the raw one."""
        if self.shrunk_schedule is not None:
            return self.shrunk_schedule
        return self.violation.schedule if self.violation else None


@dataclass
class _Frame:
    schedule: Tuple[Action, ...]
    pending: List[Action]
    explored_here: List[Action] = field(default_factory=list)
    sleep: FrozenSet[Action] = frozenset()


def _independent(a: Action, b: Action) -> bool:
    """Actions commute iff they resume different ranks (see module doc)."""
    return a.rank != b.rank


def explore(
    config: McConfig,
    mutation: Union[str, Mutation, None] = None,
    budget: Optional[Budget] = None,
) -> McResult:
    """Exhaustively search all interleavings of ``config``.

    Stops at the first invariant violation (its schedule is the raw
    counterexample; callers shrink it), on budget exhaustion
    (``exhausted=False``), or after covering the reduced state space
    (``exhausted=True``).
    """
    mut = resolve_mutation(mutation)
    result = McResult(config=config, mutation=mut.name if mut else None)
    started = time.perf_counter()

    def make_execution(schedule: Tuple[Action, ...]) -> Execution:
        ex = Execution(config, mutation=mut)
        for action in schedule:
            ex.apply(action)
        result.executions += 1
        return ex

    #: fingerprint -> sleep set it was last expanded under.
    visited: Dict[bytes, FrozenSet[Action]] = {}

    current = make_execution(())
    current_schedule: Optional[Tuple[Action, ...]] = ()
    if current.violation is None:
        current.check_deadlock()
    if current.violation is not None:
        result.violation = current.violation
        result.elapsed = time.perf_counter() - started
        return result
    visited[current.fingerprint()] = frozenset()
    result.explored = 1
    stack: List[_Frame] = [
        _Frame(schedule=(), pending=current.enabled_actions())
    ]

    while stack:
        result.elapsed = time.perf_counter() - started
        if budget is not None and budget.exceeded(result.explored, result.elapsed):
            return result  # exhausted stays False
        frame = stack[-1]
        if not frame.pending:
            stack.pop()
            continue
        action = frame.pending.pop(0)
        prior = list(frame.explored_here)
        frame.explored_here.append(action)
        if current_schedule != frame.schedule:
            current = make_execution(frame.schedule)
            current_schedule = frame.schedule
        current.apply(action)
        result.transitions += 1
        current_schedule = frame.schedule + (action,)
        result.max_depth = max(result.max_depth, len(current_schedule))
        if current.violation is not None:
            result.violation = current.violation
            result.elapsed = time.perf_counter() - started
            return result
        if not current.is_done and current.check_deadlock() is not None:
            result.violation = current.violation
            result.elapsed = time.perf_counter() - started
            return result

        sleep = frozenset(
            b
            for b in frame.sleep.union(prior)
            if _independent(b, action)
        )
        fingerprint = current.fingerprint()
        recorded = visited.get(fingerprint)
        if recorded is not None:
            if sleep >= recorded:
                result.deduped += 1
                continue
            sleep = frozenset(sleep & recorded)
        visited[fingerprint] = sleep
        if recorded is None:
            result.explored += 1
        if current.is_done:
            continue
        enabled = current.enabled_actions()
        pending = [a for a in enabled if a not in sleep]
        result.sleep_pruned += len(enabled) - len(pending)
        stack.append(
            _Frame(schedule=current_schedule, pending=pending, sleep=sleep)
        )

    result.exhausted = True
    result.elapsed = time.perf_counter() - started
    return result
