"""The SPT302 rule pass over the taint lattice.

The rule names the way a speculative value can defeat the rollback
guarantee of the speculative protocol (PAPER.md §"wrong guesses must
be correctable"): once an unconfirmed value reaches an effect the
backward window cannot undo, a mispredicted receive is no longer
recoverable.  The checkers read the per-function states that
:func:`~repro.analysis.taint.lattice.solve_taint` kept from its final
round, plus the interprocedural
:class:`~repro.analysis.taint.lattice.TaintSummary` records, so escapes
through call chains are found without inlining and no function is
solved twice.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.cfg import ModuleGraphs, call_name
from repro.analysis.diagnostics import Diagnostic, Severity, diag_at, register_rule
from repro.analysis.taint.lattice import (
    TaintContext,
    _iter_calls,
    args_for_params,
    commit_lines_of,
    declared_commit_points,
    iter_sink_args,
    solve_taint,
    unconfirmed,
)

if TYPE_CHECKING:
    from repro.analysis.program import ProgramIndex

# ------------------------------------------------------------------ registry

register_rule(
    "SPT302",
    "spec-escape-via-send",
    Severity.ERROR,
    "an unconfirmed speculative value is sent to another rank as a "
    "payload without a rollback seat; the receiver cannot distinguish "
    "it from confirmed state",
)


def _describe(expr: ast.expr) -> str:
    if isinstance(expr, ast.Name):
        return f"`{expr.id}`"
    if isinstance(expr, ast.Attribute):
        return f"`.{expr.attr}`"
    return "a derived expression"


def check_module(
    module: ModuleGraphs, ctx: TaintContext
) -> Iterator[Diagnostic]:
    """Run SPT302 over every function of one module."""
    commit_lines = ctx.commit_lines.get(module.path, frozenset())
    emitted: set[tuple[int, int, str]] = set()

    def emit(node: ast.AST, code: str, message: str) -> Iterator[Diagnostic]:
        key = (getattr(node, "lineno", 1), getattr(node, "col_offset", 0), code)
        if key in emitted or getattr(node, "lineno", 0) in commit_lines:
            return
        emitted.add(key)
        yield diag_at(module.path, node, code, message)

    for qualname in sorted(module.cfgs):
        solved = ctx.solved.get((module.path, qualname))
        if solved is None:
            continue  # declared commit point: body is trusted
        analysis, states = solved
        for node in analysis.cfg.stmt_nodes():
            stmt = node.stmt
            assert stmt is not None
            state = states[node.uid]

            # --- SPT302: direct sink reaches -----------------------
            for code, call, arg, facts in iter_sink_args(stmt, state, analysis):
                if not unconfirmed(facts):
                    continue  # parameter-origin only: the caller's report
                sink = call_name(call)
                yield from emit(
                    call,
                    code,
                    f"unconfirmed speculative value {_describe(arg)} "
                    f"reaches irreversible sink `{sink}(...)` in "
                    f"{qualname}; confirm it (check/verify) or route it "
                    "through a declared commit point first",
                )

            # --- SPT302 interprocedural: tainted arg into a
            # function whose parameter reaches a sink ------------------
            for call in _iter_calls(stmt):
                if analysis.is_commit_call(call):
                    continue
                for callee in analysis.callee_summaries(call):
                    if callee.commits or not callee.sink_params:
                        continue
                    mapping = args_for_params(call, callee)
                    for cidx, code in callee.sink_params.items():
                        arg_expr = mapping.get(cidx)
                        if arg_expr is None:
                            continue
                        if unconfirmed(analysis.facts_of(arg_expr, state)):
                            pname = (
                                callee.param_names[cidx]
                                if cidx < len(callee.param_names)
                                else f"#{cidx}"
                            )
                            yield from emit(
                                call,
                                code,
                                f"unconfirmed speculative value "
                                f"{_describe(arg_expr)} escapes through "
                                f"`{call_name(call)}(...)` in {qualname}: "
                                f"the callee's parameter `{pname}` reaches "
                                f"an irreversible sink ({code}) down the "
                                "call chain",
                            )


def findings(index: ProgramIndex) -> Iterator[Diagnostic]:
    """Every SPT finding over the shared parse and call graph."""
    commit_points = declared_commit_points(index.modules)
    ctx = solve_taint(
        index.callgraph,
        commit_points,
        {m.path: commit_lines_of(m.source) for m in index.modules},
    )
    for module in index.modules:
        yield from check_module(module, ctx)
