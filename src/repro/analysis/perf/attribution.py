"""Phase attribution: which functions run inside which protocol phase.

The speculative iteration has six protocol phases (mirroring
:mod:`repro.trace.phases` and the Eq. 3-9 cost model): ``send``,
``recv``, ``spec``, ``compute``, ``check`` and ``correct``.  A cost
pattern is only a finding when it sits *inside* one of those phases —
an allocation in a test helper is free, the same allocation in the
per-pair force loop is paid N² times per iteration.

Attribution is a fixed point over the specflow call graph:

1. *seed* — functions whose terminal name is a well-known protocol
   entry point (``send``, ``speculate``, ``compute``, ...) start in
   that phase;
2. *propagate* — a callee inherits every phase of its callers
   (transitively): a helper called from the send path is on the send
   path.

Resolution inherits the call graph's name-based over-approximation,
with one extra guard: edges through *generic container-method names*
(``append``, ``extend``, ``get``, ...) are ignored, because ``x.append``
almost always targets a built-in list, not the analysed function that
happens to share the name.  Honest over-approximation, same ethos as
:mod:`repro.analysis.cfg`.

The same pass computes a symbolic per-call cost summary per function
(:class:`FunctionCosts`): allocation sites, copy sites, send sites and
maximum loop-nesting depth — the inputs several SPP rules and the JSON
report reuse.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.cfg import (
    CallGraph,
    FunctionNode,
    ModuleGraphs,
    call_name,
    walk_body,
)

#: Protocol phases attributable to a function (superset of the measured
#: phases in :mod:`repro.trace.phases`: send+recv both surface as comm).
PROTOCOL_PHASES = ("send", "recv", "spec", "compute", "check", "correct")

#: Terminal function names seeding each phase.
PHASE_SEEDS: dict[str, frozenset[str]] = {
    "send": frozenset({"send", "broadcast", "isolate_payload"}),
    "recv": frozenset(
        {"recv", "try_recv", "record_arrival", "on_arrival", "_on_arrival",
         "deliver"}
    ),
    "spec": frozenset({"speculate", "extrapolate", "speculate_positions"}),
    "compute": frozenset(
        {"compute", "accelerations", "accelerations_from_sources",
         "compute_step"}
    ),
    "check": frozenset({"check", "verify"}),
    "correct": frozenset({"correct", "cascade", "_cascade"}),
}

#: Terminal names of protocol seats: per-rank programs and engine loops.
#: Functions reachable from a seat are *hot* (executed every iteration).
HOT_SEATS = frozenset(
    {"run", "worker_main", "_rank_program", "_run_protocol"}
)

#: Call edges through these terminal names are not followed: they are
#: overwhelmingly built-in container methods, and following them would
#: attribute e.g. every ``list.extend`` caller's phase to an analysed
#: function that happens to be called ``extend``.
GENERIC_NAMES = frozenset(
    {"append", "extend", "add", "pop", "clear", "update", "get", "items",
     "keys", "values", "copy", "sort", "index", "count", "insert",
     "remove", "join", "split", "strip", "read", "write", "close"}
)

#: Terminal callee names counted as array/container allocations.
ALLOCATION_NAMES = frozenset(
    {"zeros", "empty", "ones", "full", "array", "zeros_like", "empty_like",
     "ones_like", "full_like", "arange", "linspace"}
)

#: Terminal callee names counted as copies.
COPY_NAMES = frozenset({"deepcopy", "copy"})


def terminal_name(qualname: str) -> str:
    """Last dotted component of a qualname (``A.B.f`` → ``f``)."""
    return qualname.rsplit(".", 1)[-1]


@dataclass(frozen=True)
class FunctionCosts:
    """Symbolic per-call cost summary of one function.

    Counts are *call sites*, not dynamic counts — the static analogue
    of "how much work can one call of this function do".
    """

    allocations: int
    copies: int
    sends: int
    max_loop_depth: int

    def to_dict(self) -> dict[str, int]:
        return {
            "allocations": self.allocations,
            "copies": self.copies,
            "sends": self.sends,
            "max_loop_depth": self.max_loop_depth,
        }


def _loop_depth(func: FunctionNode) -> int:
    """Maximum ``for``/``while`` nesting depth of the function body."""

    def depth(node: ast.AST, current: int) -> int:
        best = current
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            inc = 1 if isinstance(child, (ast.For, ast.AsyncFor, ast.While)) else 0
            best = max(best, depth(child, current + inc))
        return best

    return depth(func, 0)


def summarize_costs(func: FunctionNode) -> FunctionCosts:
    """Count allocation / copy / send call sites and loop nesting."""
    allocations = copies = sends = 0
    for node in walk_body(func.body):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name in ALLOCATION_NAMES:
            allocations += 1
        elif name in COPY_NAMES:
            copies += 1
        elif name in PHASE_SEEDS["send"]:
            sends += 1
    return FunctionCosts(
        allocations=allocations,
        copies=copies,
        sends=sends,
        max_loop_depth=_loop_depth(func),
    )


Key = tuple[str, str]  # (path, qualname), as in CallGraph


@dataclass
class Attribution:
    """Phase sets, hot flags and cost summaries for a whole program."""

    phases: dict[Key, frozenset[str]]
    hot: frozenset[Key]
    costs: dict[Key, FunctionCosts]
    callgraph: CallGraph

    def phases_of(self, key: Key) -> frozenset[str]:
        """Protocol phases attributed to one function (maybe empty)."""
        return self.phases.get(key, frozenset())

    def is_hot(self, key: Key) -> bool:
        """Is the function reachable from a protocol seat?"""
        return key in self.hot

    def to_dict(self) -> dict[str, dict[str, object]]:
        """JSON-ready attribution table (docs / debugging aid)."""
        table: dict[str, dict[str, object]] = {}
        for key in self.callgraph.functions():
            phases = self.phases_of(key)
            if not phases and not self.is_hot(key):
                continue
            table[f"{key[0]}::{key[1]}"] = {
                "phases": sorted(phases),
                "hot": self.is_hot(key),
                "costs": self.costs[key].to_dict(),
            }
        return table


def function_items(
    module: ModuleGraphs, attribution: Attribution
) -> Iterator[tuple[str, FunctionNode, frozenset[str], bool]]:
    """(qualname, function node, attributed phases, hot) per function."""
    for qual in sorted(module.cfgs):
        key = (module.path, qual)
        yield (
            qual,
            module.cfgs[qual].func,
            attribution.phases_of(key),
            attribution.is_hot(key),
        )


def _filtered_callees(callgraph: CallGraph, key: Key) -> set[Key]:
    """Call-graph successors of ``key``, minus generic-name edges."""
    out: set[Key] = set()
    for _call, callee in callgraph.calls_in(*key):
        if terminal_name(callee[1]) in GENERIC_NAMES:
            continue
        out.add(callee)
    return out


def _propagate(
    callgraph: CallGraph, seeds: dict[Key, set[str]]
) -> dict[Key, frozenset[str]]:
    """Fixed point: callees inherit every phase of their callers."""
    phases: dict[Key, set[str]] = {k: set(v) for k, v in seeds.items()}
    work = list(seeds)
    while work:
        key = work.pop()
        mine = phases.get(key, set())
        if not mine:
            continue
        for callee in _filtered_callees(callgraph, key):
            have = phases.setdefault(callee, set())
            missing = mine - have
            if missing:
                have |= missing
                work.append(callee)
    return {k: frozenset(v) for k, v in phases.items() if v}


def build_attribution(callgraph: CallGraph) -> Attribution:
    """Seed, propagate and summarise costs over one program."""
    seeds: dict[Key, set[str]] = {}
    hot_seeds: list[Key] = []
    for key in callgraph.functions():
        name = terminal_name(key[1])
        for phase, names in PHASE_SEEDS.items():
            if name in names:
                seeds.setdefault(key, set()).add(phase)
        if name in HOT_SEATS:
            hot_seeds.append(key)

    phases = _propagate(callgraph, seeds)

    hot: set[Key] = set(hot_seeds)
    work = list(hot_seeds)
    while work:
        key = work.pop()
        for callee in _filtered_callees(callgraph, key):
            if callee not in hot:
                hot.add(callee)
                work.append(callee)

    costs: dict[Key, FunctionCosts] = {}
    for key in callgraph.functions():
        cfg = callgraph.cfg_of(key)
        assert cfg is not None  # functions() keys come from the modules
        costs[key] = summarize_costs(cfg.func)

    return Attribution(
        phases=phases, hot=frozenset(hot), costs=costs, callgraph=callgraph
    )
