"""specbound's rules: speculation-resource bounds and hot-path costs.

The SPB rules each flag one way a protocol buffer can outgrow the
parameter that is supposed to bound it (BW for history, FW for
run-ahead state); the SPP rule flags a per-message cost the phase
budget pays for.  The phase attribution scopes most checks — an
unbounded list in a test helper is silent, the same list on the
receive path is a finding — and every rule reads one function at a
time.

=======  ==========================================================
SPB405   window widening without a ``max_fw`` clamp
SPB406   unbounded trace/event buffer in long-running protocol code
SPB408   dict keyed by iteration number without eviction
SPP204   linear HistoryRing scan inside a message loop
=======  ==========================================================

The messages say which parameter should appear in the bound, or what
to cache.  Findings are plain ``Diagnostic`` records;
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

from repro.analysis.cfg import ModuleGraphs, loops_of, walk_body
from repro.analysis.diagnostics import Diagnostic, Severity, diag_at, register_rule
from repro.analysis.bounds.attribution import Attribution, function_items

if TYPE_CHECKING:
    from repro.analysis.program import ProgramIndex

#: Method names that grow a container.
APPEND_METHODS = frozenset({"append", "extend", "appendleft", "add"})

#: Buffer tokens treated as trace/event logs (SPB406's domain).
EVENT_BUFFER_TOKENS = frozenset(
    {"events", "records", "log", "trace", "samples", "intervals"}
)

#: Loop/index names that look like an iteration number (SPB408).
ITERATION_NAMES = frozenset({"t", "t2", "iteration", "iter_no", "step"})

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
    "SPB408", "iteration-keyed-dict", Severity.WARNING,
    "dict keyed by iteration number never evicted (grows linearly "
    "with run length)",
)
register_rule(
    "SPP204", "history-ring-scan", Severity.ERROR,
    "linear HistoryRing scan inside a per-message loop",
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


#: code -> checker, the pack :func:`findings` iterates.
RULE_CHECKERS: dict[
    str, Callable[[ModuleGraphs, Attribution], Iterator[Diagnostic]]
] = {
    "SPB405": check_spb405,
    "SPB406": check_spb406,
    "SPB408": check_spb408,
    "SPP204": check_spp204,
}


def findings(index: ProgramIndex) -> Iterator[Diagnostic]:
    """Every SPB and SPP finding over the shared parse and its
    attribution."""
    for module in index.modules:
        for checker in RULE_CHECKERS.values():
            yield from checker(module, index.attribution)
