"""Phase attribution: which functions run inside which protocol phase.

The speculative iteration has six protocol phases (mirroring
:mod:`repro.trace.phases` and the Eq. 3-9 cost model): ``send``,
``recv``, ``spec``, ``compute``, ``check`` and ``correct``.  A buffer
or cost pattern is only a finding when it sits *inside* one of those
phases — an unbounded list in a test helper is harmless, the same list
on the receive path grows with every message.

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

A second pass marks the functions reachable from a protocol seat as
*hot* (run every iteration); SPB406 reads that flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.analysis.cfg import CallGraph, FunctionNode, ModuleGraphs

#: Terminal function names seeding each phase (a superset of the
#: measured phases in :mod:`repro.trace.phases`: send and recv both
#: surface as comm).
PHASE_SEEDS: dict[str, frozenset[str]] = {
    # "isolate_payload" names the payload-isolation hook, not a module.
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

#: Terminal names of protocol seats: the engine loops and ``repro.api.run``
#: (``run``), plus the two per-rank entry points handed over by reference,
#: which the call graph cannot reach: the DES backend's per-rank program
#: (``_rank_program``) and the mp worker's process target (``worker_main``).
#: Functions reachable from a seat are *hot* (executed every iteration).
HOT_SEATS = frozenset({"run", "worker_main", "_rank_program"})

#: Call edges through these terminal names are not followed: they are
#: overwhelmingly built-in container methods, and following them would
#: attribute e.g. every ``list.extend`` caller's phase to an analysed
#: function that happens to be called ``extend``.
GENERIC_NAMES = frozenset(
    {"append", "extend", "add", "pop", "clear", "update", "get", "items",
     "keys", "values", "copy", "sort", "index", "count", "insert",
     "remove", "join", "split", "strip", "read", "write", "close"}
)


def terminal_name(qualname: str) -> str:
    """Last dotted component of a qualname (``A.B.f`` → ``f``)."""
    return qualname.rsplit(".", 1)[-1]


Key = tuple[str, str]  # (path, qualname), as in CallGraph


@dataclass
class Attribution:
    """Phase sets and hot flags for a whole program."""

    phases: dict[Key, frozenset[str]]
    hot: frozenset[Key]

    def phases_of(self, key: Key) -> frozenset[str]:
        """Protocol phases attributed to one function (maybe empty)."""
        return self.phases.get(key, frozenset())

    def is_hot(self, key: Key) -> bool:
        """Is the function reachable from a protocol seat?"""
        return key in self.hot


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
    """Seed and propagate the phases, then mark what the seats reach."""
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

    return Attribution(phases=phases, hot=frozenset(hot))
