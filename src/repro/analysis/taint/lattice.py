"""The spectaint lattice: forward taint facts over per-function CFGs.

Each variable carries a set of abstract facts:

* ``spec`` — may hold a value derived from an *unconfirmed*
  speculative source (a speculator prediction, or a read of the
  engine's uncommitted speculation ledger);
* ``committed`` — that value has passed a confirmation point on this
  path (a ``check``/``verify``/``correct`` call, a ``@commits``
  function, or a ``# spectaint: commit`` line);
* ``param:<i>`` — the value flows from the enclosing function's i-th
  parameter (pseudo-fact used to build interprocedural summaries: a
  parameter that reaches a sink makes every *caller's* tainted
  argument an escape).

The effective lattice per variable is CLEAN (no facts) ⊑ SPEC ⊑
COMMITTED-SPEC, joined pointwise by set union; a value is *unconfirmed*
when it carries ``spec`` without ``committed``.  Opaque calls launder
taint (``compute(spec)`` returns a fresh value the rollback machinery
recomputes anyway) — the analysis tracks the *datum*, not everything it
ever influenced, which is exactly the reversibility obligation: the
speculative value itself must not escape, its recomputable derivatives
are the rollback's job.

:func:`solve_taint` iterates one solve per function to a fixed point
over the call graph, producing per-function :class:`TaintSummary`
records (returns-spec, which parameters reach which sink,
is-commit-point) that nested call sites consume.  It returns one
:class:`TaintContext` that also keeps every function's states from the
fixpoint's final round, which the rule pass reads instead of solving
the function again.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis.cfg import (
    CFG,
    CallGraph,
    CFGNode,
    ModuleGraphs,
    call_name,
    walk_own,
)
from repro.analysis.dataflow import ForwardAnalysis, map_join, solve_forward

#: Calls that *produce* speculated values.
SPECULATE_NAMES = frozenset({"speculate", "predict", "extrapolate"})
#: Calls that *verify* speculated values.
CHECK_NAMES = frozenset({"check", "verify"})
#: Calls that *correct* a rejected speculation.
CORRECT_NAMES = frozenset({"correct"})

#: Abstract facts a variable may carry.
SPEC = "spec"            # derived from an unconfirmed speculative source
COMMITTED = "committed"  # confirmed on this path
_PARAM = "param:"        # prefix of parameter-origin pseudo-facts

_EMPTY: frozenset[str] = frozenset()
_SPEC_ONLY: frozenset[str] = frozenset({SPEC})

#: Engine attributes that hold *uncommitted* speculations; reading one
#: (or popping from it) yields an unconfirmed speculative value.
SPEC_LEDGER_ATTRS = frozenset({"spec_used"})

#: Sends of derived state to other ranks (payload extraction:
#: :func:`_payload_of`).
SEND_SINK_NAMES = frozenset({"send"})

#: Accessors that *read out of* a container without laundering: taking
#: an element of a tainted mapping/sequence keeps the taint.
_CONTAINER_READS = frozenset({"pop", "get", "popleft", "popitem"})

_COMMIT_LINE = re.compile(r"#\s*spectaint:\s*commit\b")


def _iter_calls(stmt: ast.stmt) -> Iterator[ast.Call]:
    """Calls in ``stmt``'s *own* expressions (:func:`walk_own`: nested
    defs and nested statements, which are separate CFG nodes, are
    skipped)."""
    return (node for node in walk_own(stmt) if isinstance(node, ast.Call))


def _payload_of(call: ast.Call) -> Optional[ast.expr]:
    """The payload argument of a send call, if present."""
    if len(call.args) > 1:
        return call.args[1]
    for kw in call.keywords:
        if kw.arg == "payload":
            return kw.value
    return None


def unconfirmed(facts: frozenset[str]) -> bool:
    """Does this value carry speculative taint with no confirmation?"""
    return SPEC in facts and COMMITTED not in facts


def param_indices(facts: frozenset[str]) -> set[int]:
    """Unconfirmed parameter origins recorded in ``facts``."""
    if COMMITTED in facts:
        return set()
    return {
        int(fact[len(_PARAM):])
        for fact in facts
        if fact.startswith(_PARAM)
    }


def commit_lines_of(source: str) -> frozenset[int]:
    """Line numbers carrying a ``# spectaint: commit`` annotation."""
    return frozenset(
        lineno
        for lineno, line in enumerate(source.splitlines(), start=1)
        if _COMMIT_LINE.search(line)
    )


def _is_commits_decorator(dec: ast.expr) -> bool:
    node: ast.expr = dec
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id == "commits"
    if isinstance(node, ast.Attribute):
        return node.attr == "commits"
    return False


def declared_commit_points(
    modules: list[ModuleGraphs],
) -> set[tuple[str, str]]:
    """``(path, qualname)`` of every ``@commits``-decorated function."""
    points: set[tuple[str, str]] = set()
    for mod in modules:
        for qual, cfg in mod.cfgs.items():
            if any(_is_commits_decorator(d) for d in cfg.func.decorator_list):
                points.add((mod.path, qual))
    return points


@dataclass
class TaintSummary:
    """Interprocedural facts about one function."""

    #: Terminal parameter names, in positional order (incl. self).
    param_names: tuple[str, ...] = ()
    #: Declared commit point: arguments are confirmed, body is trusted.
    commits: bool = False
    #: May return an unconfirmed speculative value.
    returns_spec: bool = False
    #: Parameter index -> SPT code of the sink it can reach unconfirmed.
    sink_params: dict[int, str] = field(default_factory=dict)


@dataclass
class TaintContext:
    """Everything one :class:`TaintAnalysis` solve needs around it, and
    what :func:`solve_taint`'s final round computed."""

    callgraph: Optional[CallGraph] = None
    summaries: dict[tuple[str, str], TaintSummary] = field(default_factory=dict)
    #: Terminal names of declared commit points (name-based fallback
    #: for call sites the call graph cannot resolve).
    commit_names: frozenset[str] = frozenset()
    #: ``path -> lines`` carrying ``# spectaint: commit``.
    commit_lines: dict[str, frozenset[int]] = field(default_factory=dict)
    #: ``(path, qualname) -> (analysis, states by node uid)`` of every
    #: function that is not a declared commit point.
    solved: dict[
        tuple[str, str], tuple["TaintAnalysis", dict[int, "State"]]
    ] = field(default_factory=dict)


def _param_names(cfg: CFG) -> tuple[str, ...]:
    args = cfg.func.args
    ordered = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    return tuple(a.arg for a in ordered)


def args_for_params(
    call: ast.Call, summary: TaintSummary
) -> dict[int, ast.expr]:
    """Map callee parameter indices to the argument expressions at a
    call site.

    Method calls bind the receiver to ``self``/``cls`` implicitly, so
    positional arguments shift by one when the callee's first
    parameter is a receiver and the call goes through an attribute.
    """
    offset = 0
    if (
        isinstance(call.func, ast.Attribute)
        and summary.param_names
        and summary.param_names[0] in ("self", "cls")
    ):
        offset = 1
    mapping: dict[int, ast.expr] = {}
    for pos, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            continue
        mapping[pos + offset] = arg
    for kw in call.keywords:
        if kw.arg is not None and kw.arg in summary.param_names:
            mapping[summary.param_names.index(kw.arg)] = kw.value
    return mapping


class TaintAnalysis(ForwardAnalysis["State"]):
    """Forward taint transfer for one function's CFG."""

    def __init__(
        self,
        cfg: CFG,
        ctx: TaintContext,
    ) -> None:
        self.cfg = cfg
        self.ctx = ctx
        self.commit_lines = ctx.commit_lines.get(cfg.path, frozenset())
        #: id(call) -> summaries of every resolved callee.
        self._callees: dict[int, list[TaintSummary]] = {}
        if ctx.callgraph is not None:
            for call, callee in ctx.callgraph.calls_in(cfg.path, cfg.qualname):
                summary = ctx.summaries.get(callee)
                if summary is not None:
                    self._callees.setdefault(id(call), []).append(summary)

    # ------------------------------------------------------------ lattice
    def initial(self) -> "State":
        return {
            name: frozenset({f"{_PARAM}{idx}"})
            for idx, name in enumerate(_param_names(self.cfg))
        }

    def bottom(self) -> "State":
        return {}

    def join(self, a: "State", b: "State") -> "State":
        return map_join(a, b)

    # ------------------------------------------------------------ queries
    def callee_summaries(self, call: ast.Call) -> list[TaintSummary]:
        """Summaries of every function this call may resolve to."""
        return self._callees.get(id(call), [])

    def is_commit_call(self, call: ast.Call) -> bool:
        """Does this call enter a declared commit point?"""
        if any(s.commits for s in self.callee_summaries(call)):
            return True
        return call_name(call) in self.ctx.commit_names

    # ----------------------------------------------------------- transfer
    def facts_of(self, expr: ast.expr, state: "State") -> frozenset[str]:
        """Abstract facts carried by the value of ``expr``."""
        if isinstance(expr, ast.Name):
            return state.get(expr.id, _EMPTY)
        if isinstance(expr, ast.Attribute):
            if expr.attr in SPEC_LEDGER_ATTRS:
                return _SPEC_ONLY
            return _EMPTY
        if isinstance(expr, ast.Call):
            name = call_name(expr)
            if name in SPECULATE_NAMES:
                return _SPEC_ONLY
            if any(s.returns_spec for s in self.callee_summaries(expr)):
                return _SPEC_ONLY
            if name in _CONTAINER_READS and isinstance(expr.func, ast.Attribute):
                # d.pop(k) / d.get(k): an element read keeps the
                # container's taint; everything else launders.
                return self.facts_of(expr.func.value, state)
            return _EMPTY  # opaque calls launder (compute etc.)
        if isinstance(expr, (ast.YieldFrom, ast.Await, ast.Starred, ast.NamedExpr)):
            return self.facts_of(expr.value, state)
        if isinstance(expr, ast.Subscript):
            return self.facts_of(expr.value, state)
        if isinstance(expr, ast.IfExp):
            return self.facts_of(expr.body, state) | self.facts_of(
                expr.orelse, state
            )
        if isinstance(expr, ast.BinOp):
            return self.facts_of(expr.left, state) | self.facts_of(
                expr.right, state
            )
        if isinstance(expr, ast.UnaryOp):
            return self.facts_of(expr.operand, state)
        if isinstance(expr, ast.BoolOp):
            facts = _EMPTY
            for value in expr.values:
                facts |= self.facts_of(value, state)
            return facts
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            facts = _EMPTY
            for elt in expr.elts:
                facts |= self.facts_of(elt, state)
            return facts
        if isinstance(expr, ast.Dict):
            facts = _EMPTY
            for key in expr.keys:
                if key is not None:
                    facts |= self.facts_of(key, state)
            for value in expr.values:
                facts |= self.facts_of(value, state)
            return facts
        if isinstance(expr, ast.JoinedStr):
            facts = _EMPTY
            for part in expr.values:
                facts |= self.facts_of(part, state)
            return facts
        if isinstance(expr, ast.FormattedValue):
            return self.facts_of(expr.value, state)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            facts = self.facts_of(expr.elt, state)
            for gen in expr.generators:
                facts |= self.facts_of(gen.iter, state)
            return facts
        return _EMPTY

    def _assign(
        self, new: "State", target: ast.expr, facts: frozenset[str]
    ) -> None:
        if isinstance(target, ast.Name):
            if facts:
                new[target.id] = facts
            else:
                new.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(new, elt, facts)
        elif isinstance(target, ast.Starred):
            self._assign(new, target.value, facts)
        elif isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            if facts:
                base = target.value.id
                new[base] = new.get(base, _EMPTY) | facts

    def _confirm(self, new: "State", arg: ast.expr) -> None:
        if isinstance(arg, ast.Name):
            facts = new.get(arg.id, _EMPTY)
            if facts:
                new[arg.id] = facts | {COMMITTED}

    def transfer(self, node: CFGNode, state: "State") -> "State":
        stmt = node.stmt
        if stmt is None:
            return state
        new = dict(state)
        on_commit_line = getattr(stmt, "lineno", 0) in self.commit_lines
        # 1. Confirmation points mark their named arguments committed:
        #    check/verify/correct calls and declared commit points.
        for call in _iter_calls(stmt):
            name = call_name(call)
            if (
                name in CHECK_NAMES
                or name in CORRECT_NAMES
                or self.is_commit_call(call)
            ):
                for arg in list(call.args) + [kw.value for kw in call.keywords]:
                    self._confirm(new, arg)
        # 2. Assignments propagate / launder / commit facts.
        if isinstance(stmt, ast.Assign):
            facts = self.facts_of(stmt.value, new)
            if facts and on_commit_line:
                facts = facts | {COMMITTED}
            for target in stmt.targets:
                self._assign(new, target, facts)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            facts = self.facts_of(stmt.value, new)
            if facts and on_commit_line:
                facts = facts | {COMMITTED}
            self._assign(new, stmt.target, facts)
        elif isinstance(stmt, ast.AugAssign):
            facts = self.facts_of(stmt.value, new)
            if isinstance(stmt.target, ast.Name):
                merged = new.get(stmt.target.id, _EMPTY) | facts
                if merged and on_commit_line:
                    merged = merged | {COMMITTED}
                if merged:
                    new[stmt.target.id] = merged
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            # Iterating a tainted container taints the loop variable.
            self._assign(new, stmt.target, self.facts_of(stmt.iter, new))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._assign(
                        new,
                        item.optional_vars,
                        self.facts_of(item.context_expr, new),
                    )
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    new.pop(target.id, None)
        return new


State = dict[str, frozenset[str]]


def iter_sink_args(
    stmt: ast.stmt,
    state: State,
    analysis: TaintAnalysis,
) -> Iterator[tuple[str, ast.Call, ast.expr, frozenset[str]]]:
    """Direct sink reaches in one statement.

    Yields ``(SPT code, sink call, offending argument, facts)`` for
    every send payload (SPT302) whose facts include speculative or
    parameter-origin taint.  Commit calls are not sinks — a declared
    commit point is exactly where speculative data is *allowed* to
    become irreversible — and sink calls on a ``# spectaint: commit``
    line are likewise exempt.
    """
    for call in _iter_calls(stmt):
        if analysis.is_commit_call(call):
            continue
        if getattr(call, "lineno", 0) in analysis.commit_lines:
            continue
        if call_name(call) in SEND_SINK_NAMES:
            payload = _payload_of(call)
            if payload is not None:
                facts = analysis.facts_of(payload, state)
                if unconfirmed(facts) or param_indices(facts):
                    yield "SPT302", call, payload, facts


def solve_taint(
    callgraph: CallGraph,
    commit_points: set[tuple[str, str]],
    commit_lines: dict[str, frozenset[int]],
) -> TaintContext:
    """Solve every function to the fixpoint of the per-function taint
    summaries over the call graph.

    Each round re-solves every function that is not a declared commit
    point (trusted: it commits nothing speculative outward) with the
    current summaries.  A summary grows monotonically (returns-spec can
    only flip to True, sink-params only gain entries), so the rounds
    stop, and the last one changes nothing: every state it computed
    already saw the final summaries.  Those states are kept in
    :attr:`TaintContext.solved`.
    """
    cfgs = {key: callgraph.cfg_of(key) for key in callgraph.functions()}
    summaries = {
        key: TaintSummary(
            param_names=_param_names(cfg) if cfg is not None else (),
            commits=key in commit_points,
        )
        for key, cfg in cfgs.items()
    }
    ctx = TaintContext(
        callgraph=callgraph,
        summaries=summaries,
        commit_names=frozenset(qual.rsplit(".", 1)[-1] for _, qual in commit_points),
        commit_lines=commit_lines,
    )
    # Summaries are updated in place, so each analysis's resolved
    # callees stay current across rounds.
    analyses = {
        key: TaintAnalysis(cfg, ctx)
        for key, cfg in cfgs.items()
        if cfg is not None and not summaries[key].commits
    }
    changed = True
    while changed:
        changed = False
        for key, analysis in analyses.items():
            summary = summaries[key]
            cfg = analysis.cfg
            states = solve_forward(cfg, analysis)
            ctx.solved[key] = (analysis, states)
            for node in cfg.stmt_nodes():
                stmt = node.stmt
                assert stmt is not None
                state = states[node.uid]
                if (
                    isinstance(stmt, ast.Return)
                    and stmt.value is not None
                    and not summary.returns_spec
                ):
                    out = analysis.transfer(node, state)
                    if unconfirmed(analysis.facts_of(stmt.value, out)):
                        summary.returns_spec = True
                        changed = True
                # Parameters reaching a sink directly...
                for code, _call, arg, facts in iter_sink_args(
                    stmt, state, analysis
                ):
                    for idx in param_indices(facts):
                        if summary.sink_params.get(idx) is None:
                            summary.sink_params[idx] = code
                            changed = True
                # ... or through a callee that sinks its parameter.
                for call in _iter_calls(stmt):
                    for callee in analysis.callee_summaries(call):
                        if callee.commits or not callee.sink_params:
                            continue
                        mapping = args_for_params(call, callee)
                        for cidx, code in callee.sink_params.items():
                            arg_expr = mapping.get(cidx)
                            if arg_expr is None:
                                continue
                            facts = analysis.facts_of(arg_expr, state)
                            for idx in param_indices(facts):
                                if summary.sink_params.get(idx) is None:
                                    summary.sink_params[idx] = code
                                    changed = True
    return ctx
