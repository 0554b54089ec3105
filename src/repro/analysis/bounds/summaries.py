"""Per-function buffer summaries for the bound analysis.

The unit of specbound reasoning is a *buffer*: a growable container
(``list``, ``deque``, ``dict``, ``set``, ``HistoryRing``, a pipe
``_inbox``, an ``EventLog.events``) that protocol code appends to.  A
buffer is *bounded* when every append is paired with a trim — a
``pop``/``clear``/``del``/slice cut, a ``maxlen=`` at the allocation
site, or an explicit cap — somewhere in the owning module.

Summaries make the pairing interprocedural, in exactly the mold of
spectaint's ``param:i`` taint summaries: for every function we record
which of its *parameters* it appends to and which it trims, then
propagate caller→callee to a fixed point over the shared call graph.
``helper(buf)`` in a protocol loop is then an append site on whatever
the caller passed as ``buf`` — the append-without-trim chain does not
hide behind one level of indirection (fixture
``bad_interproc_chain.py`` pins this).

Like the call graph itself the propagation is name-based and honestly
over-approximate: positional arguments only, ``self`` skipped, and a
parameter that is both appended and trimmed counts as trimmed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.analysis.cfg import (
    CallGraph,
    FunctionNode,
    ModuleGraphs,
    call_name,
    walk_body,
)

Key = tuple[str, str]  # (path, qualname), as in CallGraph

#: Method names that grow a container.
APPEND_METHODS = frozenset({"append", "extend", "appendleft", "add"})

#: Method names that shrink or drain a container.
TRIM_METHODS = frozenset({"pop", "popleft", "popitem", "remove", "clear"})

#: Growable container constructors specbound tracks allocations of.
GROWABLE_CALLS = frozenset(
    {"list", "deque", "dict", "set", "defaultdict", "OrderedDict",
     "HistoryRing", "EventLog"}
)


@dataclass(frozen=True)
class BufferSummary:
    """What one function does to its parameters' buffers.

    Indices are positional parameter positions with a leading ``self``
    / ``cls`` skipped, so they line up with call-site argument lists.
    """

    appends: frozenset[int]
    trims: frozenset[int]


_EMPTY = BufferSummary(appends=frozenset(), trims=frozenset())


def _param_names(func: FunctionNode) -> list[str]:
    """Positional parameter names, minus a leading self/cls receiver."""
    args = [a.arg for a in func.args.posonlyargs + func.args.args]
    if args and args[0] in ("self", "cls"):
        args = args[1:]
    return args


def _receiver_name(expr: ast.AST) -> Optional[str]:
    """The root identifier a method call's receiver reads, if plain.

    ``buf.append`` → ``buf``; ``buf[k].append`` → ``buf`` (a keyed
    sub-buffer grows the keyed container for bounding purposes).
    """
    cur = expr
    while isinstance(cur, ast.Subscript):
        cur = cur.value
    if isinstance(cur, ast.Name):
        return cur.id
    return None


def direct_summary(func: FunctionNode) -> BufferSummary:
    """Appends/trims the function performs on its own parameters."""
    params = _param_names(func)
    index = {name: i for i, name in enumerate(params)}
    appends: set[int] = set()
    trims: set[int] = set()
    for node in walk_body(func.body):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = _receiver_name(node.func.value)
            if name in index:
                if node.func.attr in APPEND_METHODS:
                    appends.add(index[name])
                elif node.func.attr in TRIM_METHODS:
                    trims.add(index[name])
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                name = _receiver_name(target)
                if name in index:
                    trims.add(index[name])
    return BufferSummary(appends=frozenset(appends), trims=frozenset(trims))


def compute_buffer_summaries(callgraph: CallGraph) -> dict[Key, BufferSummary]:
    """Direct summaries propagated callee→caller to a fixed point.

    If ``helper`` appends to its parameter 0 and ``f`` contains
    ``helper(queue)`` with ``queue`` a parameter of ``f``, then ``f``
    appends to that parameter too (transitively).
    """
    summaries: dict[Key, BufferSummary] = {}
    for key in callgraph.functions():
        cfg = callgraph.cfg_of(key)
        assert cfg is not None  # functions() keys come from the modules
        summaries[key] = direct_summary(cfg.func)

    changed = True
    while changed:
        changed = False
        for key in callgraph.functions():
            cfg = callgraph.cfg_of(key)
            assert cfg is not None
            params = _param_names(cfg.func)
            index = {name: i for i, name in enumerate(params)}
            mine = summaries[key]
            appends = set(mine.appends)
            trims = set(mine.trims)
            for call, callee in callgraph.calls_in(*key):
                theirs = summaries.get(callee, _EMPTY)
                if not (theirs.appends or theirs.trims):
                    continue
                for pos, arg in enumerate(call.args):
                    name = _receiver_name(arg)
                    if name not in index:
                        continue
                    if pos in theirs.appends:
                        appends.add(index[name])
                    if pos in theirs.trims:
                        trims.add(index[name])
            new = BufferSummary(appends=frozenset(appends), trims=frozenset(trims))
            if new != mine:
                summaries[key] = new
                changed = True
    return summaries


# --------------------------------------------------------------------------
# Append / allocation / trim sites inside one function
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AppendSite:
    """One place a function grows a buffer (directly or via a callee)."""

    node: ast.AST
    buffer: str  # display form, e.g. "self._backlog"
    token: str  # terminal identifier, e.g. "_backlog"
    via: Optional[str]  # callee qualname for interprocedural sites


def _buffer_display(expr: ast.AST) -> Optional[tuple[str, str]]:
    """(display, token) for a plain name / self-attribute buffer."""
    cur = expr
    while isinstance(cur, ast.Subscript):
        cur = cur.value
    if isinstance(cur, ast.Name):
        return cur.id, cur.id
    if (
        isinstance(cur, ast.Attribute)
        and isinstance(cur.value, ast.Name)
        and cur.value.id == "self"
    ):
        return f"self.{cur.attr}", cur.attr
    return None


def iter_append_sites(
    stmts: list[ast.stmt],
    key: Key,
    callgraph: Optional[CallGraph],
    summaries: Optional[dict[Key, BufferSummary]],
) -> Iterator[AppendSite]:
    """Every append site under ``stmts`` (nested defs pruned).

    Direct ``buf.append(...)`` calls always surface; calls whose callee
    summary appends a positional parameter surface as interprocedural
    sites when ``callgraph``/``summaries`` are given.
    """
    callee_of: dict[int, Key] = {}
    if callgraph is not None:
        for call, callee in callgraph.calls_in(*key):
            callee_of[id(call)] = callee

    for node in walk_body(stmts):
        if not isinstance(node, ast.Call):
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in APPEND_METHODS
        ):
            named = _buffer_display(node.func.value)
            if named is not None:
                yield AppendSite(
                    node=node, buffer=named[0], token=named[1], via=None
                )
            continue
        callee = callee_of.get(id(node))
        if callee is None or summaries is None:
            continue
        theirs = summaries.get(callee, _EMPTY)
        for pos in sorted(theirs.appends):
            if pos >= len(node.args):
                continue
            named = _buffer_display(node.args[pos])
            if named is not None:
                yield AppendSite(
                    node=node, buffer=named[0], token=named[1], via=callee[1]
                )


@dataclass(frozen=True)
class AllocationSite:
    """One growable-container allocation (``self.x = deque()`` etc.)."""

    node: ast.Call
    target: str  # display form of the assigned name
    token: str  # terminal identifier
    kind: str  # constructor name: list / deque / dict / ...
    has_maxlen: bool


def iter_allocations(func: FunctionNode) -> Iterator[AllocationSite]:
    """Growable-container allocations assigned to a name/attribute."""
    for node in walk_body(func.body):
        targets: list[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not isinstance(value, ast.Call):
            continue
        kind = call_name(value)
        if kind not in GROWABLE_CALLS:
            continue
        has_maxlen = any(
            kw.arg in ("maxlen", "capacity", "max_events")
            for kw in value.keywords
        )
        for target in targets:
            named = _buffer_display(target)
            if named is not None:
                yield AllocationSite(
                    node=value,
                    target=named[0],
                    token=named[1],
                    kind=kind,
                    has_maxlen=has_maxlen,
                )


def module_trims(module: ModuleGraphs, token: str) -> bool:
    """Does the module anywhere shrink or cap buffer ``token``?

    Textual, but subscript-aware (the pipe inbox trims via
    ``self._inbox[src].pop(0)``) and counting a ``maxlen=`` /
    ``max_events=`` cap.  ``clear`` is deliberately NOT counted:
    resetting a buffer between runs does not bound it within one.
    """
    sub = r"(?:\[[^]\n]*\])?"
    name = re.escape(token)
    pattern = (
        rf"\b{name}{sub}\.pop(?:left|item)?\b"
        rf"|\b{name}{sub}\.remove\b"
        rf"|del\s+(?:self\.)?{name}\b"
        rf"|\b{name}\s*=\s*[^=\n]*\b{name}\s*\[-"
        rf"|maxlen|max_events"
    )
    return re.search(pattern, module.source) is not None


def trimmed_tokens(
    module: ModuleGraphs,
    callgraph: Optional[CallGraph],
    summaries: Optional[dict[Key, BufferSummary]],
) -> frozenset[str]:
    """Buffer tokens some call in the module passes to a trimming callee."""
    if callgraph is None or summaries is None:
        return frozenset()
    out: set[str] = set()
    for qual in module.cfgs:
        key = (module.path, qual)
        for call, callee in callgraph.calls_in(*key):
            theirs = summaries.get(callee, _EMPTY)
            for pos in theirs.trims:
                if pos >= len(call.args):
                    continue
                named = _buffer_display(call.args[pos])
                if named is not None:
                    out.add(named[1])
    return frozenset(out)
