"""Counterexample shrinking: delta debugging over the schedule.

The raw counterexample the explorer returns is whatever DFS prefix
first tripped an invariant — typically padded with irrelevant skips
and deliveries.  ``ddmin`` removes chunks of the schedule while the
*same invariant id* still fires under best-effort replay
(:func:`~repro.analysis.modelcheck.model.replay_schedule`: non-enabled
actions are dropped, and the run is completed deterministically once
the schedule runs out).  A candidate therefore "fails" iff schedule +
deterministic completion reproduces the violation — which is exactly
the recipe the emitted regression test replays, so a shrunk schedule
is reproducible by construction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.analysis.modelcheck.model import (
    Action,
    Mutation,
    replay_schedule,
    resolve_mutation,
)
from repro.analysis.modelcheck.scenario import McConfig

__all__ = ["shrink_schedule"]

#: Most replays one shrink takes.
MAX_REPLAYS = 2000


def shrink_schedule(
    config: McConfig,
    schedule: Sequence[Action],
    invariant: str,
    mutation: Union[str, Mutation, None] = None,
) -> Tuple[Action, ...]:
    """1-minimal schedule still violating ``invariant``.

    Classic ddmin (complement reduction with granularity doubling)
    followed by a greedy single-action sweep.  Bounded by
    :data:`MAX_REPLAYS` replays; returns the input unchanged if it does
    not reproduce (should not happen for explorer-produced schedules).
    """
    mut = resolve_mutation(mutation)
    replays = 0

    def fails(candidate: Sequence[Action]) -> bool:
        nonlocal replays
        replays += 1
        outcome = replay_schedule(config, candidate, mutation=mut)
        return (
            outcome.violation is not None
            and outcome.violation.invariant == invariant
        )

    current: List[Action] = list(schedule)
    if not fails(current):
        return tuple(schedule)

    granularity = 2
    while len(current) >= 2 and replays < MAX_REPLAYS:
        chunk = max(1, len(current) // granularity)
        chunks = [current[i:i + chunk] for i in range(0, len(current), chunk)]
        reduced: Optional[List[Action]] = None
        for skip_index in range(len(chunks)):
            candidate = [
                action
                for j, part in enumerate(chunks)
                if j != skip_index
                for action in part
            ]
            if fails(candidate):
                reduced = candidate
                break
        if reduced is not None:
            current = reduced
            granularity = max(2, granularity - 1)
        else:
            if chunk == 1:
                break
            granularity = min(len(current), granularity * 2)

    index = 0
    while index < len(current) and replays < MAX_REPLAYS:
        candidate = current[:index] + current[index + 1:]
        if fails(candidate):
            current = candidate
        else:
            index += 1
    return tuple(current)
