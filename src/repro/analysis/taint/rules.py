"""The SPT301–SPT308 rule pass over the taint lattice.

Each rule names one way a speculative value can defeat the rollback
guarantee of the speculative protocol (PAPER.md §"wrong guesses must
be correctable"): once an unconfirmed value reaches an effect the
backward window cannot undo, a mispredicted receive is no longer
recoverable.  The checkers consume the per-function fixpoint states of
:class:`~repro.analysis.taint.lattice.TaintAnalysis` plus the
interprocedural :class:`~repro.analysis.taint.lattice.TaintSummary`
records, so escapes through call chains are found without inlining.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from repro.analysis.cfg import CFG, CallGraph, ModuleGraphs, call_name
from repro.analysis.dataflow import solve_forward
from repro.analysis.diagnostics import Diagnostic, Severity, diag_at, register_rule
from repro.analysis.taint.lattice import (
    CHECK_NAMES,
    State,
    TaintAnalysis,
    TaintContext,
    _iter_calls,
    _param_names,
    args_for_params,
    commit_lines_of,
    compute_taint_summaries,
    declared_commit_points,
    iter_sink_args,
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
    "SPT303",
    "spec-stored-past-window",
    Severity.ERROR,
    "an unconfirmed speculative value is stored into state that "
    "outlives the backward window (object attribute or module global) "
    "with no reclaim (pop/del/clear) anywhere in the module",
)
register_rule(
    "SPT304",
    "unsanitized-commit",
    Severity.ERROR,
    "an unconfirmed speculative value is passed to a commit-style call "
    "(commit/finalize/publish) that is not a declared commit point, "
    "and no check/verify of that value exists on any later path",
)
register_rule(
    "SPT305",
    "commit-before-confirm",
    Severity.ERROR,
    "a speculative value is committed before its confirmation: a "
    "check/verify of the same value is reachable *after* the "
    "commit-style call — the operations are in the wrong order",
)
register_rule(
    "SPT306",
    "spec-in-exception-path",
    Severity.ERROR,
    "an unconfirmed speculative value is embedded in a raised "
    "exception; exceptions propagate past the rollback machinery and "
    "leak the speculation to handlers that cannot undo it",
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

#: Commit-style call names SPT304/305 audit when *undeclared*.
COMMIT_STYLE_NAMES = frozenset({"commit", "finalize", "publish"})

#: Container mutators whose receiver keeps the written value.
_MUTATORS = frozenset(
    {"append", "add", "insert", "extend", "update", "setdefault"}
)

#: Reclaim operations that end an attribute-resident speculation.
_RECLAIMS = frozenset({"pop", "popitem", "popleft", "clear"})

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


def _attr_base(expr: ast.expr) -> Optional[ast.Attribute]:
    """The attribute at the root of a (possibly subscripted) lvalue."""
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    return node if isinstance(node, ast.Attribute) else None


def _name_base(expr: ast.expr) -> Optional[str]:
    """The name at the root of a (possibly subscripted) lvalue."""
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def reclaimed_attrs(module: ModuleGraphs) -> frozenset[str]:
    """Attributes some code in this module pops/deletes/clears.

    A store into ``self.attr`` only outlives the backward window if
    nothing ever reclaims that attribute: the engine's speculation
    ledger (``spec_used``) is stored *and* popped on arrival, which is
    the protocol working as designed, not an escape.
    """
    reclaimed: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _RECLAIMS:
                base = _attr_base(node.func.value)
                if base is not None:
                    reclaimed.add(base.attr)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                base = _attr_base(target)
                if base is not None:
                    reclaimed.add(base.attr)
        elif isinstance(node, ast.Assign):
            # self.h = self.h[-n:] — slice-reassign trim.
            if (
                isinstance(node.value, ast.Subscript)
                and isinstance(node.value.slice, ast.Slice)
            ):
                trimmed = _attr_base(node.value)
                for target in node.targets:
                    kept = _attr_base(target)
                    if (
                        trimmed is not None
                        and kept is not None
                        and kept.attr == trimmed.attr
                    ):
                        reclaimed.add(kept.attr)
    return frozenset(reclaimed)


def _param_aliases(cfg: CFG) -> frozenset[str]:
    """Names that (may) alias a caller-owned parameter object.

    Flow-insensitive: seeded with the parameters (minus the receiver —
    ``self`` stores are SPT303's domain) and closed over direct
    name-to-name copies.
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


def _global_names(cfg: CFG) -> frozenset[str]:
    names: set[str] = set()
    for node in ast.walk(cfg.func):
        if isinstance(node, ast.Global):
            names.update(node.names)
    return frozenset(names)


def _confirm_reachable(
    cfg: CFG, uid: int, var: str
) -> bool:
    """Is a check/verify of ``var`` reachable strictly after ``uid``?"""
    for later_uid in cfg.reachable_from(uid):
        stmt = cfg.nodes[later_uid].stmt
        if stmt is None:
            continue
        for call in _iter_calls(stmt):
            if call_name(call) not in CHECK_NAMES:
                continue
            args = list(call.args) + [kw.value for kw in call.keywords]
            if any(isinstance(a, ast.Name) and a.id == var for a in args):
                return True
    return False


def _tainted_names_in(
    expr: ast.expr, state: State, analysis: TaintAnalysis
) -> list[str]:
    """Unconfirmed speculative names anywhere inside ``expr``.

    Deliberately deeper than :meth:`TaintAnalysis.facts_of`: a
    ``raise ValueError(spec)`` wraps the value in a laundering call,
    but the exception object still *carries* it out of the frame.
    """
    names: list[str] = []
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if unconfirmed(state.get(sub.id, frozenset())) and sub.id not in names:
                names.append(sub.id)
    return names


def check_module(
    module: ModuleGraphs, ctx: TaintContext
) -> Iterator[Diagnostic]:
    """Run SPT301–SPT307 over every function of one module."""
    reclaimed = reclaimed_attrs(module)
    commit_lines = ctx.commit_lines.get(module.path, frozenset())
    emitted: set[tuple[int, int, str]] = set()

    def emit(node: ast.AST, code: str, message: str) -> Iterator[Diagnostic]:
        key = (getattr(node, "lineno", 1), getattr(node, "col_offset", 0), code)
        if key in emitted or getattr(node, "lineno", 0) in commit_lines:
            return
        emitted.add(key)
        yield diag_at(module.path, node, code, message)

    for qualname, cfg in sorted(module.cfgs.items()):
        summary = ctx.summaries.get((module.path, qualname))
        if summary is not None and summary.commits:
            continue  # declared commit point: body is trusted
        analysis = TaintAnalysis(cfg, ctx)
        states = solve_forward(cfg, analysis)
        aliases = _param_aliases(cfg)
        globals_ = _global_names(cfg)
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

            # --- SPT304/305: commit-style calls -----------------------
            for call in _iter_calls(stmt):
                name = call_name(call)
                if name not in COMMIT_STYLE_NAMES:
                    continue
                if analysis.is_commit_call(call):
                    continue  # declared commit point: sanctioned
                for arg in list(call.args) + [kw.value for kw in call.keywords]:
                    if not unconfirmed(analysis.facts_of(arg, state)):
                        continue
                    if isinstance(arg, ast.Name) and _confirm_reachable(
                        cfg, node.uid, arg.id
                    ):
                        yield from emit(
                            call,
                            "SPT305",
                            f"`{name}({arg.id})` in {qualname} runs "
                            "before the check/verify of "
                            f"`{arg.id}` that follows it; confirm the "
                            "speculation first, then commit",
                        )
                    else:
                        yield from emit(
                            call,
                            "SPT304",
                            f"undeclared commit `{name}(...)` in "
                            f"{qualname} consumes unconfirmed "
                            f"speculative value {_describe(arg)} and no "
                            "check/verify exists on any later path; mark "
                            "the function `@commits` if this is a real "
                            "commit point, otherwise verify first",
                        )

            # --- SPT303: stores outliving the backward window ---------
            spec_store_targets: list[tuple[ast.AST, str]] = []
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                value = stmt.value
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                if value is not None and unconfirmed(
                    analysis.facts_of(value, state)
                ):
                    for target in targets:
                        base = _attr_base(target)
                        if base is not None and base.attr not in reclaimed:
                            spec_store_targets.append((target, f".{base.attr}"))
                        gname = _name_base(target)
                        if gname is not None and gname in globals_:
                            spec_store_targets.append((target, gname))
            for call in _iter_calls(stmt):
                if call_name(call) not in _MUTATORS:
                    continue
                if not isinstance(call.func, ast.Attribute):
                    continue
                args = list(call.args) + [kw.value for kw in call.keywords]
                if not any(
                    unconfirmed(analysis.facts_of(a, state)) for a in args
                ):
                    continue
                base = _attr_base(call.func.value)
                if base is not None and base.attr not in reclaimed:
                    spec_store_targets.append((call, f".{base.attr}"))
            for target, where in spec_store_targets:
                yield from emit(
                    target,
                    "SPT303",
                    f"unconfirmed speculative value stored into "
                    f"`{where}` in {qualname}, which outlives the "
                    "backward window (nothing in this module ever "
                    "pops/deletes/clears it); reclaim it on arrival or "
                    "annotate the store `# spectaint: commit` with a "
                    "justification",
                )

            # --- SPT306: speculative data in raised exceptions --------
            if isinstance(stmt, ast.Raise) and stmt.exc is not None:
                carried: list[str] = _tainted_names_in(stmt.exc, state, analysis)
                if stmt.cause is not None:
                    carried += [
                        n
                        for n in _tainted_names_in(stmt.cause, state, analysis)
                        if n not in carried
                    ]
                if carried:
                    listed = ", ".join(f"`{n}`" for n in carried)
                    yield from emit(
                        stmt,
                        "SPT306",
                        f"raise in {qualname} carries unconfirmed "
                        f"speculative value(s) {listed} out of the "
                        "rollback scope; handlers cannot undo the "
                        "speculation — confirm before raising or raise "
                        "without the speculative payload",
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
    commit_lines = {m.path: commit_lines_of(m.source) for m in index.modules}
    ctx = TaintContext(
        callgraph=index.callgraph,
        summaries=compute_taint_summaries(
            index.callgraph, commit_points, commit_lines
        ),
        commit_names=frozenset(
            qual.rsplit(".", 1)[-1] for _, qual in commit_points
        ),
        commit_lines=commit_lines,
    )
    for module in index.modules:
        yield from check_module(module, ctx)
    yield from check_dead_rollback(index.callgraph, commit_points)
