"""The speclint rules (SPL001, SPL004).

Each rule is a small, self-contained AST pass tuned to *this*
codebase's speculative-DES idioms (see ``docs/static_analysis.md`` for
the rationale, bad/good examples and the honest list of heuristics).

Shared conventions the rules key on:

* Virtual processors are bound to names ending in ``proc`` (``proc``,
  ``vp``, ``processor``); environments to names ending in ``env``.
* ``proc.recv`` is a generator: it only blocks when driven with
  ``yield from``.
* Message tags are ``(family, iteration)`` tuples whose family is a
  declared constant (``VARS``, ``BARRIER_IN``...), never a bare string.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.analysis.diagnostics import Diagnostic, Severity, diag_at, register_rule

if TYPE_CHECKING:
    from repro.analysis.program import ProgramIndex

# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------

#: Receiver names that denote a virtual processor.
PROC_NAMES = frozenset({"proc", "processor", "vp"})
#: Receiver names that denote a simulation environment.
ENV_NAMES = frozenset({"env", "environment"})
#: Processor methods that are generators (must be ``yield from``-ed).
GENERATOR_METHODS = frozenset({"recv"})
#: Processor methods whose ``tag=`` keyword speclint inspects.
TAGGED_METHODS = frozenset({"send", "recv"})


def build_parent_map(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    """Map each node to its syntactic parent."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def receiver_tail(expr: ast.expr) -> Optional[str]:
    """Terminal identifier of a receiver expression.

    ``proc`` -> "proc"; ``self.proc`` -> "proc"; ``cluster.env`` ->
    "env"; anything else -> None.
    """
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def is_proc_receiver(expr: ast.expr) -> bool:
    """Does ``expr`` look like a virtual-processor handle?"""
    tail = receiver_tail(expr)
    return tail is not None and (tail in PROC_NAMES or tail.endswith("_proc"))


def is_env_receiver(expr: ast.expr) -> bool:
    """Does ``expr`` look like a simulation environment handle?"""
    tail = receiver_tail(expr)
    return tail is not None and (tail in ENV_NAMES or tail.endswith("_env"))


# --------------------------------------------------------------------------
# SPL001 — unawaited simulation call
# --------------------------------------------------------------------------


register_rule(
    "SPL001",
    "unawaited-simulation-call",
    Severity.ERROR,
    "generator call (proc.recv) not driven with `yield from`, or an "
    "env.timeout event created and discarded",
)


def check_spl001(tree: ast.Module, path: str, source: str) -> Iterator[Diagnostic]:
    """A dropped ``yield from`` silently skips virtual time/blocking."""
    parents = build_parent_map(tree)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        attr = node.func.attr
        recv = node.func.value
        if attr in GENERATOR_METHODS and is_proc_receiver(recv):
            parent = parents.get(node)
            if not isinstance(parent, ast.YieldFrom):
                yield diag_at(
                    path,
                    node,
                    "SPL001",
                    f"simulation call `{receiver_tail(recv)}.{attr}(...)` is a "
                    "generator and does nothing unless driven with `yield from`",
                )
        elif attr == "timeout" and is_env_receiver(recv):
            parent = parents.get(node)
            if isinstance(parent, ast.Expr):
                yield diag_at(
                    path,
                    node,
                    "SPL001",
                    f"`{receiver_tail(recv)}.timeout(...)` creates an event that "
                    "is discarded; yield it (or drop the call)",
                )


# --------------------------------------------------------------------------
# SPL004 — message-tag discipline
# --------------------------------------------------------------------------


register_rule(
    "SPL004",
    "message-tag-discipline",
    Severity.ERROR,
    "message tags must be (family, iteration) tuples whose family is a "
    "declared constant (e.g. VARS), not a bare string",
)


def check_spl004(tree: ast.Module, path: str, source: str) -> Iterator[Diagnostic]:
    """Bare-string tags collide across protocols and defeat routing."""
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in TAGGED_METHODS
        ):
            continue
        tag_kw = next((kw for kw in node.keywords if kw.arg == "tag"), None)
        if tag_kw is None:
            continue
        tag = tag_kw.value
        if isinstance(tag, ast.Constant):
            if tag.value is None:
                continue  # wildcard receive
            yield diag_at(
                path,
                tag,
                "SPL004",
                f"bare {type(tag.value).__name__} tag {tag.value!r}; use a "
                "(family, iteration) tuple with a declared family constant",
            )
        elif isinstance(tag, ast.Tuple):
            if len(tag.elts) != 2:
                yield diag_at(
                    path,
                    tag,
                    "SPL004",
                    f"tag tuple has {len(tag.elts)} elements; the protocol "
                    "uses (family, iteration) pairs",
                )
            elif isinstance(tag.elts[0], ast.Constant):
                first = tag.elts[0]
                assert isinstance(first, ast.Constant)
                yield diag_at(
                    path,
                    first,
                    "SPL004",
                    f"inline tag family {first.value!r}; declare a module-level "
                    "family constant (like VARS) and use it in the tuple",
                )


#: code -> checker, the pack :func:`findings` iterates.
RULE_CHECKERS: dict[str, Callable[[ast.Module, str, str], Iterator[Diagnostic]]] = {
    "SPL001": check_spl001,
    "SPL004": check_spl004,
}


def findings(index: ProgramIndex) -> Iterator[Diagnostic]:
    """Every SPL finding: the rules are per-module, so the shared parse
    is all they take from the index."""
    for module in index.modules:
        for checker in RULE_CHECKERS.values():
            yield from checker(module.tree, module.path, module.source)
