"""A small forward-dataflow fixpoint engine over per-function CFGs.

Classic worklist algorithm, monotone-framework shape: an analysis
supplies the initial state, a join (least upper bound) and a transfer
function; :func:`solve_forward` iterates to a fixpoint and returns the
state *at entry of* every node (the state after a node is
``transfer(node, entry_state)``).

States must be immutable-ish values with structural equality — the
engine never mutates them, it only joins and compares.  The taint
analysis (:mod:`repro.analysis.taint.lattice`) uses frozen
dict-of-frozenset states; anything hashable or ``==``-comparable works.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, TypeVar

from repro.analysis.cfg import CFG, CFGNode

S = TypeVar("S")

#: Iteration safety valve: |nodes| * this factor bounds worklist pops.
MAX_VISITS_PER_NODE = 64


class ForwardAnalysis(Generic[S]):
    """Base class for forward analyses (subclass and override)."""

    def initial(self) -> S:
        """State at the function entry."""
        raise NotImplementedError

    def bottom(self) -> S:
        """State for not-yet-reached nodes (identity of :meth:`join`)."""
        raise NotImplementedError

    def join(self, a: S, b: S) -> S:
        """Least upper bound of two states (path merge)."""
        raise NotImplementedError

    def transfer(self, node: CFGNode, state: S) -> S:
        """State after executing ``node`` from ``state``."""
        raise NotImplementedError


def solve_forward(cfg: CFG, analysis: ForwardAnalysis[S]) -> dict[int, S]:
    """Run ``analysis`` over ``cfg`` to fixpoint.

    Returns the entry state of every node uid.  Unreachable nodes keep
    the bottom state.  Termination is guaranteed for finite lattices;
    a visit budget guards against non-monotone transfer bugs (raises
    ``RuntimeError`` rather than spinning).
    """
    entry_state: dict[int, S] = {uid: analysis.bottom() for uid in cfg.nodes}
    entry_state[cfg.entry] = analysis.initial()
    work: deque[int] = deque([cfg.entry])
    reached: set[int] = {cfg.entry}
    budget = max(1, len(cfg.nodes)) * MAX_VISITS_PER_NODE
    pops = 0
    while work:
        pops += 1
        if pops > budget:  # pragma: no cover - defensive
            raise RuntimeError(
                f"dataflow did not converge on {cfg.qualname} "
                f"({len(cfg.nodes)} nodes, {pops} visits)"
            )
        uid = work.popleft()
        out = analysis.transfer(cfg.nodes[uid], entry_state[uid])
        for succ in cfg.nodes[uid].succs:
            joined = analysis.join(entry_state[succ], out)
            # Propagate on a changed state *or* first reachability —
            # with an empty initial state the join can equal bottom,
            # and the successor still has to be visited once.
            if joined != entry_state[succ] or succ not in reached:
                entry_state[succ] = joined
                reached.add(succ)
                if succ not in work:
                    work.append(succ)
    return entry_state


def map_join(
    a: dict[str, frozenset[str]], b: dict[str, frozenset[str]]
) -> dict[str, frozenset[str]]:
    """Pointwise union join for ``name -> set-of-facts`` states.

    The workhorse lattice of the taint analysis: each variable maps to
    the set of abstract facts it may carry; merging two paths unions
    the possibilities.
    """
    if not b:
        return a
    if not a:
        return b
    merged = dict(a)
    for key, facts in b.items():
        have = merged.get(key)
        merged[key] = facts if have is None else (have | facts)
    return merged

