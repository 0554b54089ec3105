"""The SPP2xx hot-path cost rules.

Each rule flags one cost pattern *in the phase where it hurts* — the
phase attribution (:mod:`repro.analysis.perf.attribution`) scopes every
check, so an allocation in a test helper is silent while the same
allocation in the per-pair force kernel is a finding.

=======  ==========================================================
SPP201   per-message ``deepcopy`` on the send path, no fast path
SPP202   history container rebuilt inside a loop (O(msgs × history))
SPP203   array/container allocation in the innermost compute loop
SPP204   linear HistoryRing scan inside a message loop
SPP205   attribute chain re-resolved in the innermost compute loop
SPP207   freshly built mutable payload handed to send/broadcast
SPP208   loop-invariant ``payload_nbytes`` recomputed per message
=======  ==========================================================

Like the SPF pack these are *heuristic* (warnings) except where the
pattern is unambiguous (errors): name-based phase attribution can
over-approximate, and the messages say what to hoist or freeze rather
than pretending certainty.  Findings are plain ``Diagnostic`` records;
``# specperf: disable=SPP203`` suppressions work exactly as for
speclint/specflow.
"""

from __future__ import annotations

import ast
from collections import Counter
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.analysis.cfg import LOOPS, ModuleGraphs, call_name, loops_of, walk_body
from repro.analysis.diagnostics import Diagnostic, Severity, diag_at, register_rule
from repro.analysis.perf.attribution import (
    PHASE_SEEDS,
    Attribution,
    function_items,
)

if TYPE_CHECKING:
    from repro.analysis.program import ProgramIndex

#: Container names treated as per-iteration history / message state.
HISTORY_NAMES = frozenset(
    {"history", "events", "intervals", "messages", "chain", "buffer",
     "log", "pending"}
)

#: numpy-style allocators + comprehension nodes flagged by SPP203.
ALLOC_CALL_NAMES = frozenset(
    {"zeros", "empty", "ones", "full", "array", "zeros_like", "empty_like",
     "ones_like", "full_like"}
)

register_rule(
    "SPP201", "send-path-deepcopy", Severity.ERROR,
    "per-message deepcopy on the send path without an immutability "
    "fast path",
)
register_rule(
    "SPP202", "history-rebuild-in-loop", Severity.WARNING,
    "history container rebuilt on every loop iteration "
    "(O(messages x history) scan)",
)
register_rule(
    "SPP203", "alloc-in-compute-loop", Severity.WARNING,
    "array/container allocated inside the innermost compute loop",
)
register_rule(
    "SPP204", "history-ring-scan", Severity.ERROR,
    "linear HistoryRing scan inside a per-message loop",
)
register_rule(
    "SPP205", "attr-chain-in-kernel", Severity.WARNING,
    "attribute chain re-resolved on every innermost compute-loop "
    "iteration",
)
register_rule(
    "SPP207", "mutable-payload-send", Severity.WARNING,
    "freshly built mutable payload handed to send/broadcast "
    "(forces a deep copy)",
)
register_rule(
    "SPP208", "loop-invariant-sizing", Severity.WARNING,
    "loop-invariant payload_nbytes recomputed on every message",
)


def _is_innermost(loop: ast.stmt) -> bool:
    """True when no further loop nests inside ``loop``'s body."""
    for node in walk_body(loop.body):  # type: ignore[attr-defined]
        if node is not loop and isinstance(node, LOOPS):
            return False
    return True


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


def _import_roots(tree: ast.Module) -> set[str]:
    """Names bound by module-level imports (``np``, ``ast``, ...)."""
    roots: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                roots.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                roots.add(alias.asname or alias.name)
    return roots


# --------------------------------------------------------------------------
# SPP201: per-message deepcopy without an immutability fast path
# --------------------------------------------------------------------------


def check_spp201(
    module: ModuleGraphs, attribution: Attribution
) -> Iterator[Diagnostic]:
    for qual, func, phases, _hot in function_items(module, attribution):
        if "send" not in phases:
            continue
        guarded = any(
            isinstance(node, ast.Call)
            and (name := call_name(node)) is not None
            and "immutable" in name.lower()
            for node in walk_body(func.body)
        )
        if guarded:
            continue
        for node in walk_body(func.body):
            if isinstance(node, ast.Call) and call_name(node) == "deepcopy":
                yield diag_at(
                    module.path, node, "SPP201",
                    f"send-path function '{qual}' deep-copies every "
                    "payload; probe immutability first (frozen Message, "
                    "tuples of scalars, bytes) so already-safe payloads "
                    "skip the copy",
                )


# --------------------------------------------------------------------------
# SPP202: history container rebuilt inside a loop
# --------------------------------------------------------------------------


def _history_name(expr: ast.AST) -> Optional[str]:
    """The history-ish identifier an expression reads, if any."""
    if isinstance(expr, ast.Name) and expr.id in HISTORY_NAMES:
        return expr.id
    if isinstance(expr, ast.Attribute) and expr.attr in HISTORY_NAMES:
        return expr.attr
    if isinstance(expr, ast.Subscript):
        return _history_name(expr.value)
    return None


def check_spp202(
    module: ModuleGraphs, attribution: Attribution
) -> Iterator[Diagnostic]:
    for qual, func, phases, _hot in function_items(module, attribution):
        if not phases & {"spec", "recv", "check"}:
            continue
        for loop in loops_of(func):
            for node in walk_body(loop.body):  # type: ignore[attr-defined]
                rebuilt: Optional[str] = None
                if (
                    isinstance(node, ast.Call)
                    and call_name(node) in {"list", "sorted", "tuple"}
                    and node.args
                ):
                    rebuilt = _history_name(node.args[0])
                elif isinstance(node, ast.ListComp):
                    rebuilt = _history_name(node.generators[0].iter)
                if rebuilt is not None:
                    yield diag_at(
                        module.path, node, "SPP202",
                        f"'{qual}' rebuilds history container "
                        f"'{rebuilt}' on every loop iteration — "
                        "O(messages x history) per iteration; hoist the "
                        "rebuild or index incrementally",
                    )


# --------------------------------------------------------------------------
# SPP203: allocation in the innermost compute loop
# --------------------------------------------------------------------------


def check_spp203(
    module: ModuleGraphs, attribution: Attribution
) -> Iterator[Diagnostic]:
    for qual, func, phases, _hot in function_items(module, attribution):
        if "compute" not in phases:
            continue
        for loop in loops_of(func):
            if not _is_innermost(loop):
                continue
            for node in walk_body(loop.body):  # type: ignore[attr-defined]
                flagged = (
                    isinstance(node, ast.Call)
                    and call_name(node) in ALLOC_CALL_NAMES
                ) or isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp))
                if flagged:
                    yield diag_at(
                        module.path, node, "SPP203",
                        f"'{qual}' allocates a fresh array/container in "
                        "its innermost compute loop (paid once per pair "
                        "per iteration); hoist the allocation and reuse "
                        "the storage",
                    )


# --------------------------------------------------------------------------
# SPP204: linear HistoryRing scan inside a per-message loop
# --------------------------------------------------------------------------

_RING_TOKENS = frozenset({"history", "ring"})


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
# SPP205: attribute chain re-resolved in the innermost compute loop
# --------------------------------------------------------------------------

#: Minimum loads of one chain in one innermost loop to report.
SPP205_THRESHOLD = 3


def _pure_chain(node: ast.Attribute) -> Optional[str]:
    """``a.b.c`` as a string when the chain roots at a plain name."""
    parts = [node.attr]
    cur = node.value
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def _collect_chains(stmts: list[ast.stmt], roots: set[str]) -> Counter:
    counts: Counter = Counter()

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            chain = _pure_chain(node)
            if chain is not None:
                if chain.split(".", 1)[0] not in roots:
                    counts[chain] += 1
                return  # a pure chain's sub-chains are not re-counted
        for child in ast.iter_child_nodes(node):
            visit(child)

    for stmt in stmts:
        visit(stmt)
    return counts


def check_spp205(
    module: ModuleGraphs, attribution: Attribution
) -> Iterator[Diagnostic]:
    roots = _import_roots(module.tree)
    for qual, func, phases, _hot in function_items(module, attribution):
        if "compute" not in phases:
            continue
        for loop in loops_of(func):
            if not _is_innermost(loop):
                continue
            counts = _collect_chains(loop.body, roots)  # type: ignore[attr-defined]
            for chain, n in sorted(counts.items()):
                if n >= SPP205_THRESHOLD and chain.count(".") >= 2:
                    yield diag_at(
                        module.path, loop, "SPP205",
                        f"'{qual}' resolves '{chain}' {n} times in its "
                        "innermost compute loop; bind it to a local "
                        "before the loop",
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


# --------------------------------------------------------------------------
# SPP208: loop-invariant payload_nbytes recomputed per message
# --------------------------------------------------------------------------


def _loop_targets(loop: ast.stmt) -> set[str]:
    """Names bound by the loop header (``for`` targets; none for while)."""
    names: set[str] = set()
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        for node in ast.walk(loop.target):
            if isinstance(node, ast.Name):
                names.add(node.id)
    return names


def _assigned_in(stmts: list[ast.stmt]) -> set[str]:
    """Names assigned anywhere under ``stmts`` (loop-variant values)."""
    names: set[str] = set()
    for node in walk_body(stmts):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def check_spp208(
    module: ModuleGraphs, attribution: Attribution
) -> Iterator[Diagnostic]:
    for qual, func, phases, _hot in function_items(module, attribution):
        sends = any(
            isinstance(node, ast.Call)
            and call_name(node) in PHASE_SEEDS["send"]
            for node in walk_body(func.body)
        )
        if not sends and "send" not in phases:
            continue
        for loop in loops_of(func):
            variant = _loop_targets(loop) | _assigned_in(loop.body)  # type: ignore[attr-defined]
            for node in walk_body(loop.body):  # type: ignore[attr-defined]
                if not (
                    isinstance(node, ast.Call)
                    and call_name(node) == "payload_nbytes"
                ):
                    continue
                arg_names = {
                    n.id
                    for a in node.args
                    for n in ast.walk(a)
                    if isinstance(n, ast.Name)
                }
                if arg_names and not (arg_names & variant):
                    yield diag_at(
                        module.path, node, "SPP208",
                        f"'{qual}' recomputes payload_nbytes on a "
                        "loop-invariant payload for every message; "
                        "hoist the size computation out of the send "
                        "loop",
                    )


#: code -> checker, the pack :func:`findings` iterates.
RULE_CHECKERS: dict[
    str, Callable[[ModuleGraphs, Attribution], Iterator[Diagnostic]]
] = {
    "SPP201": check_spp201,
    "SPP202": check_spp202,
    "SPP203": check_spp203,
    "SPP204": check_spp204,
    "SPP205": check_spp205,
    "SPP207": check_spp207,
    "SPP208": check_spp208,
}


def findings(index: ProgramIndex) -> Iterator[Diagnostic]:
    """Every SPP finding over the shared parse and its attribution."""
    for module in index.modules:
        for checker in RULE_CHECKERS.values():
            yield from checker(module, index.attribution)
