"""The SPT301, SPT302, SPT307 and SPT308 rule pass over the taint lattice.

Each rule names one way a speculative value can defeat the rollback
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
from typing import TYPE_CHECKING, Iterator, Optional

from repro.analysis.cfg import CFG, CallGraph, ModuleGraphs, call_name
from repro.analysis.diagnostics import Diagnostic, Severity, diag_at, register_rule
from repro.analysis.taint.lattice import (
    TaintContext,
    _iter_calls,
    _param_names,
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
    "SPT301",
    "spec-escape-to-io",
    Severity.ERROR,
    "an unconfirmed speculative value reaches an irreversible I/O sink "
    "(print/open/write/dump/...) — once emitted it cannot be rolled "
    "back when the actual value arrives and disagrees",
)
register_rule(
    "SPT302",
    "spec-escape-via-send",
    Severity.ERROR,
    "an unconfirmed speculative value is sent to another rank as a "
    "payload without a rollback seat; the receiver cannot distinguish "
    "it from confirmed state",
)
register_rule(
    "SPT307",
    "aliased-spec-mutation",
    Severity.ERROR,
    "an unconfirmed speculative value is written through an alias of a "
    "caller-owned object (a parameter or a copy of one); the mutation "
    "escapes the callee's frame and outlives its rollback scope",
)
register_rule(
    "SPT308",
    "dead-rollback-handler",
    Severity.WARNING,
    "a rollback/undo/revert handler is defined but never called from "
    "any analysed code path — the recovery half of the protocol is "
    "unreachable, so every speculation is effectively a commit",
)

#: Container mutators whose receiver keeps the written value.
_MUTATORS = frozenset(
    {"append", "add", "insert", "extend", "update", "setdefault"}
)

#: Function names that look like the protocol's recovery half.
ROLLBACK_NAMES = frozenset(
    {"rollback", "on_rollback", "undo", "unwind", "revert"}
)


def _describe(expr: ast.expr) -> str:
    if isinstance(expr, ast.Name):
        return f"`{expr.id}`"
    if isinstance(expr, ast.Attribute):
        return f"`.{expr.attr}`"
    return "a derived expression"


def _name_base(expr: ast.expr) -> Optional[str]:
    """The name at the root of a (possibly subscripted) lvalue."""
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _param_aliases(cfg: CFG) -> frozenset[str]:
    """Names that (may) alias a caller-owned parameter object.

    Flow-insensitive: seeded with the parameters (minus the receiver,
    whose attributes are the object's own state) and closed over
    direct name-to-name copies.
    """
    aliases = {name for name in _param_names(cfg) if name not in ("self", "cls")}
    copies: list[tuple[str, str]] = []
    for node in cfg.stmt_nodes():
        stmt = node.stmt
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    copies.append((target.id, stmt.value.id))
    for _ in range(len(copies) + 1):
        changed = False
        for target, source in copies:
            if source in aliases and target not in aliases:
                aliases.add(target)
                changed = True
        if not changed:
            break
    return frozenset(aliases)


def check_module(
    module: ModuleGraphs, ctx: TaintContext
) -> Iterator[Diagnostic]:
    """Run SPT301, SPT302 and SPT307 over every function of one module."""
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
        cfg = analysis.cfg
        aliases = _param_aliases(cfg)
        for node in cfg.stmt_nodes():
            stmt = node.stmt
            assert stmt is not None
            state = states[node.uid]

            # --- SPT301/302: direct sink reaches -----------------------
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

            # --- SPT301/302 interprocedural: tainted arg into a
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

            # --- SPT307: mutation through caller-owned aliases --------
            spt307_sites: list[tuple[ast.AST, str, str]] = []
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                value = stmt.value
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                if unconfirmed(analysis.facts_of(value, state)):
                    for target in targets:
                        if not isinstance(target, ast.Subscript):
                            continue
                        root = _name_base(target)
                        if root is not None and root in aliases:
                            spt307_sites.append((target, root, "subscript store"))
            for call in _iter_calls(stmt):
                if call_name(call) not in _MUTATORS:
                    continue
                if not isinstance(call.func, ast.Attribute):
                    continue
                root = _name_base(call.func.value)
                if root is None or root not in aliases:
                    continue
                args = list(call.args) + [kw.value for kw in call.keywords]
                if any(unconfirmed(analysis.facts_of(a, state)) for a in args):
                    spt307_sites.append(
                        (call, root, f"`.{call_name(call)}(...)`")
                    )
            for site, root, how in spt307_sites:
                yield from emit(
                    site,
                    "SPT307",
                    f"unconfirmed speculative value written into "
                    f"`{root}` ({how}) in {qualname}; `{root}` aliases a "
                    "caller-owned object, so the speculation escapes "
                    "this frame's rollback scope through the alias",
                )


def check_dead_rollback(
    callgraph: CallGraph,
    commit_points: set[tuple[str, str]],
) -> Iterator[Diagnostic]:
    """SPT308: rollback-looking handlers with no caller anywhere."""
    for key in callgraph.functions():
        path, qualname = key
        name = qualname.rsplit(".", 1)[-1]
        if name not in ROLLBACK_NAMES:
            continue
        if key in commit_points:
            continue  # declared commit points are trusted wiring
        if callgraph.callers.get(key):
            continue
        cfg = callgraph.cfg_of(key)
        anchor: ast.AST = cfg.func if cfg is not None else ast.Pass()
        yield diag_at(
            path,
            anchor,
            "SPT308",
            f"rollback handler `{qualname}` is never called from any "
            "analysed code path; the recovery half of the speculation "
            "protocol is dead — wire it into the correction path or "
            "remove it",
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
    yield from check_dead_rollback(index.callgraph, commit_points)
