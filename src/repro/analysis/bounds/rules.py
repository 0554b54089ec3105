"""specbound's rules: speculation-resource bounds and hot-path costs.

The SPB rules each flag one way a protocol buffer can outgrow the
parameter that is supposed to bound it (BW for history, FW for
run-ahead state); the two SPP rules flag a per-message cost the phase
budget pays for.  The phase attribution scopes most checks — an
unbounded list in a test helper is silent, the same list on the
receive path is a finding — and every rule reads one function at a
time.

=======  ==========================================================
SPB402   history trim uses a literal instead of the BW/FW parameter
SPB405   window widening without a ``max_fw`` clamp
SPB406   unbounded trace/event buffer in long-running protocol code
SPB407   cascade correction loop without an FW-derived depth guard
SPB408   dict keyed by iteration number without eviction
SPP204   linear HistoryRing scan inside a message loop
SPP207   freshly built mutable payload handed to send/broadcast
=======  ==========================================================

The messages say which parameter should appear in the bound, or what
to cache or freeze.  Findings are plain ``Diagnostic`` records;
``# specbound: disable=SPB406`` suppressions work exactly as for the
other three families.  History rings and inboxes have no static rule:
the sanitizer's ``buffer-occupancy-bounded`` hooks and the ``--trace``
occupancy contracts check them.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.analysis.cfg import ModuleGraphs, call_name, loops_of, walk_body
from repro.analysis.diagnostics import Diagnostic, Severity, diag_at, register_rule
from repro.analysis.bounds.attribution import (
    PHASE_SEEDS,
    Attribution,
    function_items,
    terminal_name,
)

if TYPE_CHECKING:
    from repro.analysis.program import ProgramIndex

#: Method names that grow a container.
APPEND_METHODS = frozenset({"append", "extend", "appendleft", "add"})

#: Buffer tokens treated as trace/event logs (SPB406's domain).
EVENT_BUFFER_TOKENS = frozenset(
    {"events", "records", "log", "trace", "samples", "intervals"}
)

#: Buffer tokens treated as speculation history (SPB402).
HISTORY_TOKENS = frozenset(
    {"history", "hist", "ring", "chain", "window", "recent", "samples"}
)

#: Names that make a loop bound window-derived (SPB407's guard).
GUARD_TOKENS = frozenset(
    {"frontier", "fw", "forward", "window", "horizon", "bound", "depth"}
)

#: Loop/index names that look like an iteration number (SPB408).
ITERATION_NAMES = frozenset({"t", "t2", "iteration", "iter_no", "step"})

register_rule(
    "SPB402", "literal-history-trim", Severity.WARNING,
    "history trim uses an integer literal instead of the BW/FW "
    "parameter that should bound it",
)
register_rule(
    "SPB405", "unclamped-window-widening", Severity.WARNING,
    "window policy widens fw without a max_fw clamp, so pending "
    "speculation state is unbounded",
)
register_rule(
    "SPB406", "unbounded-event-buffer", Severity.WARNING,
    "trace/event buffer on a protocol path grows with run length "
    "(no max_events cap or consumption trim)",
)
register_rule(
    "SPB407", "unguarded-cascade-loop", Severity.WARNING,
    "cascade correction loop bound is not derived from the forward "
    "window / frontier, so rollback depth is unbounded",
)
register_rule(
    "SPB408", "iteration-keyed-dict", Severity.WARNING,
    "dict keyed by iteration number never evicted (grows linearly "
    "with run length)",
)
register_rule(
    "SPP204", "history-ring-scan", Severity.ERROR,
    "linear HistoryRing scan inside a per-message loop",
)
register_rule(
    "SPP207", "mutable-payload-send", Severity.WARNING,
    "freshly built mutable payload handed to send/broadcast "
    "(forces a deep copy)",
)


def _names_in(node: ast.AST) -> set[str]:
    """Every identifier (names + attribute components) under ``node``."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


# --------------------------------------------------------------------------
# Buffers: append sites and the textual trim / drain scans
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AppendSite:
    """One place a function grows a buffer."""

    node: ast.AST
    buffer: str  # display form, e.g. "self._backlog"
    token: str  # terminal identifier, e.g. "_backlog"


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


def iter_append_sites(stmts: list[ast.stmt]) -> Iterator[AppendSite]:
    """Every direct ``buf.append(...)`` under ``stmts`` (nested defs pruned)."""
    for node in walk_body(stmts):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in APPEND_METHODS
        ):
            named = _buffer_display(node.func.value)
            if named is not None:
                yield AppendSite(node=node, buffer=named[0], token=named[1])


#: An optional subscript: ``self._inbox[src].pop(0)`` drains ``_inbox``.
_SUB = r"(?:\[[^]\n]*\])?"


def _module_drains(module: ModuleGraphs, token: str) -> bool:
    """Does the module ever consume (pop/del) buffer ``token``?"""
    name = re.escape(token)
    pattern = rf"\b{name}{_SUB}\.pop(?:left|item)?\b|del\s+(?:self\.)?{name}\b"
    return re.search(pattern, module.source) is not None


def module_trims(module: ModuleGraphs, token: str) -> bool:
    """Does the module anywhere shrink or cap buffer ``token``?

    Textual: a drain, a ``remove``, a negative-slice reassignment or a
    ``maxlen=`` / ``max_events=`` cap.  ``clear`` is deliberately NOT
    counted: resetting a buffer between runs does not bound it within
    one.
    """
    name = re.escape(token)
    pattern = (
        rf"\b{name}{_SUB}\.remove\b"
        rf"|\b{name}\s*=\s*[^=\n]*\b{name}\s*\[-"
        rf"|maxlen|max_events"
    )
    return _module_drains(module, token) or (
        re.search(pattern, module.source) is not None
    )


# --------------------------------------------------------------------------
# SPB402: history trim uses a literal instead of the BW/FW parameter
# --------------------------------------------------------------------------


def _history_token(expr: ast.AST) -> Optional[tuple[str, str]]:
    """(display, token) when the expression reads a history-ish buffer."""
    cur = expr
    while isinstance(cur, ast.Subscript):
        cur = cur.value
    if isinstance(cur, ast.Name) and cur.id in HISTORY_TOKENS:
        return cur.id, cur.id
    if isinstance(cur, ast.Attribute) and cur.attr in HISTORY_TOKENS:
        display = (
            f"self.{cur.attr}"
            if isinstance(cur.value, ast.Name) and cur.value.id == "self"
            else cur.attr
        )
        return display, cur.attr
    return None


def _literal_tail_slice(node: ast.Subscript) -> Optional[int]:
    """The N of a ``buf[-N:]`` / ``buf[:-N]`` trim with a literal N."""
    sl = node.slice
    if not isinstance(sl, ast.Slice):
        return None
    for edge in (sl.lower, sl.upper):
        if (
            isinstance(edge, ast.UnaryOp)
            and isinstance(edge.op, ast.USub)
            and isinstance(edge.operand, ast.Constant)
            and isinstance(edge.operand.value, int)
        ):
            return int(edge.operand.value)
    return None


def check_spb402(
    module: ModuleGraphs, attribution: Attribution
) -> Iterator[Diagnostic]:
    for qual, func, _phases, _hot in function_items(module, attribution):
        for node in walk_body(func.body):
            named: Optional[tuple[str, str]] = None
            n: Optional[int] = None
            if isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        named = _history_token(target.value)
                        n = _literal_tail_slice(target)
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Subscript
            ):
                named = _history_token(node.value.value)
                n = _literal_tail_slice(node.value)
            if named is not None and n is not None:
                yield diag_at(
                    module.path, node, "SPB402",
                    f"'{qual}' trims history buffer '{named[0]}' to a "
                    f"literal {n}; derive the trim from the backward "
                    "window (bw) so the retained history tracks the "
                    "speculator's needs",
                )


# --------------------------------------------------------------------------
# SPB405: window widening without a max_fw clamp
# --------------------------------------------------------------------------


def _is_fw_name(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id == "fw"
    if isinstance(expr, ast.Attribute):
        return expr.attr == "fw"
    return False


def check_spb405(
    module: ModuleGraphs, attribution: Attribution
) -> Iterator[Diagnostic]:
    for qual, func, _phases, _hot in function_items(module, attribution):
        # One walk per top-level statement: nested defs are another
        # function's scope; lambdas and class bodies are this one's.
        seen: set[str] = set()
        for stmt in func.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                seen |= _names_in(stmt)
        if "max_fw" in seen or "min" in seen:
            continue  # a clamp is in scope
        for node in walk_body(func.body):
            widens = (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Add)
                and (
                    (_is_fw_name(node.left)
                     and isinstance(node.right, ast.Constant)
                     and isinstance(node.right.value, int)
                     and node.right.value > 0)
                    or (_is_fw_name(node.right)
                        and isinstance(node.left, ast.Constant)
                        and isinstance(node.left.value, int)
                        and node.left.value > 0)
                )
            )
            if widens:
                yield diag_at(
                    module.path, node, "SPB405",
                    f"'{qual}' widens the forward window (fw + const) "
                    "with no max_fw clamp in scope; an unclamped "
                    "window makes in-flight speculation state "
                    "unbounded (cap with min(fw + 1, max_fw))",
                )


# --------------------------------------------------------------------------
# SPB406: unbounded trace/event buffer in long-running protocol code
# --------------------------------------------------------------------------


def check_spb406(
    module: ModuleGraphs, attribution: Attribution
) -> Iterator[Diagnostic]:
    for qual, func, phases, hot in function_items(module, attribution):
        if not phases and not hot:
            continue
        for site in iter_append_sites(func.body):
            if site.token not in EVENT_BUFFER_TOKENS:
                continue
            if module_trims(module, site.token):
                continue
            yield diag_at(
                module.path, site.node, "SPB406",
                f"'{qual}' appends to trace buffer '{site.buffer}' on "
                "a protocol path with no max_events cap or consumption "
                "trim; in long-running mode the log grows without "
                "bound — cap it (EventLog(max_events=...)) and count "
                "drops",
            )


# --------------------------------------------------------------------------
# SPB407: cascade correction loop without an FW-derived depth guard
# --------------------------------------------------------------------------


def _loop_guard_names(loop: ast.stmt) -> set[str]:
    """Identifiers appearing in the loop's bound expression."""
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        return _names_in(loop.iter)
    if isinstance(loop, ast.While):
        return _names_in(loop.test)
    return set()


def _open_ended(loop: ast.stmt) -> bool:
    """Loops whose trip count is not tied to an existing collection.

    ``for x in some_list`` iterates a finite structure and is bounded
    by whatever bounds the structure; ``while ...`` and
    ``for t in range(...)`` / ``itertools.count(...)`` manufacture
    their own trip count and need a window-derived guard.
    """
    if isinstance(loop, ast.While):
        return True
    if isinstance(loop, (ast.For, ast.AsyncFor)) and isinstance(
        loop.iter, ast.Call
    ):
        return call_name(loop.iter) in {"range", "count"}
    return False


def check_spb407(
    module: ModuleGraphs, attribution: Attribution
) -> Iterator[Diagnostic]:
    for qual, func, phases, _hot in function_items(module, attribution):
        if "cascade" not in terminal_name(qual).lower():
            continue
        if "correct" not in phases:
            continue  # analysis/reporting helpers, not the protocol
        for loop in loops_of(func):
            if not _open_ended(loop):
                continue
            guard = {n.lower() for n in _loop_guard_names(loop)}
            if any(tok in name for name in guard for tok in GUARD_TOKENS):
                continue
            yield diag_at(
                module.path, loop, "SPB407",
                f"cascade loop in '{qual}' has no FW-derived depth "
                "guard (bound not expressed in frontier/fw); a "
                "correction cascade must terminate within the forward "
                "window or rollback work is unbounded",
            )


# --------------------------------------------------------------------------
# SPB408: dict keyed by iteration number without eviction
# --------------------------------------------------------------------------


def _iteration_key_name(index: ast.expr) -> Optional[str]:
    """The iteration-ish name an index expression is keyed by."""
    candidates: list[ast.expr] = [index]
    if isinstance(index, ast.Tuple):
        candidates = list(index.elts)
    for cand in candidates:
        for node in ast.walk(cand):
            if isinstance(node, ast.Name) and node.id in ITERATION_NAMES:
                return node.id
    return None


def check_spb408(
    module: ModuleGraphs, attribution: Attribution
) -> Iterator[Diagnostic]:
    for qual, func, phases, _hot in function_items(module, attribution):
        if not phases:
            continue
        for node in walk_body(func.body):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not isinstance(target, ast.Subscript):
                    continue
                named = None
                base = target.value
                if (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"
                ):
                    named = (f"self.{base.attr}", base.attr)
                elif isinstance(base, ast.Name):
                    named = (base.id, base.id)
                if named is None:
                    continue
                key_name = _iteration_key_name(target.slice)
                if key_name is None:
                    continue
                if _module_drains(module, named[1]):
                    continue
                yield diag_at(
                    module.path, node, "SPB408",
                    f"'{qual}' stores into '{named[0]}' keyed by "
                    f"iteration '{key_name}' and nothing in the module "
                    "evicts old keys; prune entries below the verified "
                    "horizon or the map grows with run length",
                )


# --------------------------------------------------------------------------
# SPP204: linear HistoryRing scan inside a per-message loop
# --------------------------------------------------------------------------

_RING_TOKENS = frozenset({"history", "ring"})


def _chain_names(expr: ast.AST) -> set[str]:
    """Identifiers appearing in an attribute/subscript chain."""
    names: set[str] = set()
    cur: Optional[ast.AST] = expr
    while cur is not None:
        if isinstance(cur, ast.Attribute):
            names.add(cur.attr)
            cur = cur.value
        elif isinstance(cur, ast.Subscript):
            cur = cur.value
        elif isinstance(cur, ast.Name):
            names.add(cur.id)
            cur = None
        else:
            cur = None
    return names


def check_spp204(
    module: ModuleGraphs, attribution: Attribution
) -> Iterator[Diagnostic]:
    for qual, func, phases, _hot in function_items(module, attribution):
        if not phases & {"recv", "check"}:
            continue
        for loop in loops_of(func):
            for node in walk_body(loop.body):  # type: ignore[attr-defined]
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in {"lookup", "times", "values", "series"}
                ):
                    continue
                if _chain_names(node.func.value) & _RING_TOKENS:
                    yield diag_at(
                        module.path, node, "SPP204",
                        f"'{qual}' walks a HistoryRing inside a "
                        "per-message loop — O(messages x history) per "
                        "iteration; cache the lookup (the ring is "
                        "keyed by iteration) outside the loop",
                    )


# --------------------------------------------------------------------------
# SPP207: freshly built mutable payload handed to send/broadcast
# --------------------------------------------------------------------------

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)


def check_spp207(
    module: ModuleGraphs, attribution: Attribution
) -> Iterator[Diagnostic]:
    for qual, func, _phases, _hot in function_items(module, attribution):
        for node in walk_body(func.body):
            if not (
                isinstance(node, ast.Call)
                and call_name(node) in PHASE_SEEDS["send"]
            ):
                continue
            for arg in node.args:
                if isinstance(arg, _MUTABLE_LITERALS):
                    yield diag_at(
                        module.path, arg, "SPP207",
                        f"'{qual}' sends a freshly built mutable "
                        "payload; isolation must deep-copy it — build "
                        "a tuple (or frozen structure) so the "
                        "immutability fast path applies",
                    )


#: code -> checker, the pack :func:`findings` iterates.
RULE_CHECKERS: dict[
    str, Callable[[ModuleGraphs, Attribution], Iterator[Diagnostic]]
] = {
    "SPB402": check_spb402,
    "SPB405": check_spb405,
    "SPB406": check_spb406,
    "SPB407": check_spb407,
    "SPB408": check_spb408,
    "SPP204": check_spp204,
    "SPP207": check_spp207,
}


def findings(index: ProgramIndex) -> Iterator[Diagnostic]:
    """Every SPB and SPP finding over the shared parse and its
    attribution."""
    for module in index.modules:
        for checker in RULE_CHECKERS.values():
            yield from checker(module, index.attribution)
