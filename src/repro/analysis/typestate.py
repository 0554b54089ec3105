"""Type-state analysis of the speculative protocol state machine.

The protocol's value lifecycle is a state machine::

    send ──▶ recv ──▶ (actual) ─────────────────────▶ commit
                 └──▶ speculate ──▶ compute ──▶ verify ──▶ correct
                          │                        │
                          └── UNVERIFIED ──────────┘

A value produced by a speculator is *unverified* until it has been
checked against the actual arrival; committing it (sending it to
another rank, returning it as a result) before that check is the bug
class the runtime sanitizer can only catch when the bad path actually
executes — this module finds it on **all** paths, statically:

* **SPF101** — a speculated value reaches a commit point
  (``send``/``broadcast`` payload) with no ``check``/``verify`` on
  some path.  Interprocedural: functions that *return* speculated
  values taint their callers through call-graph summaries.
* **SPF102** — a history container that feeds the speculator grows
  without a backward-window trim, so values older than the window can
  be consumed.
* **SPF103** — a correction/recompute loop walks iterations in
  descending order, violating the cascade-rollback ordering that the
  stability results require (corrections must propagate oldest-first).

The SPF101 pass runs on the dataflow engine
(:mod:`repro.analysis.dataflow`) over per-function CFGs
(:mod:`repro.analysis.cfg`); SPF102/SPF103 are syntactic
per-function passes that share the same function inventory.

:func:`findings` is the specflow family as ``repro analyze`` runs it:
these three passes plus the happens-before pair (SPF110/SPF111) of
:mod:`repro.analysis.races`.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from repro.analysis.cfg import CallGraph, CFGNode, ModuleGraphs, call_name
from repro.analysis.dataflow import ForwardAnalysis, map_join, solve_forward
from repro.analysis.diagnostics import Diagnostic, Severity, diag_at, register_rule
from repro.analysis.races import build_static_hb, check_spf110, check_spf111

if TYPE_CHECKING:
    from repro.analysis.program import ProgramIndex

# ------------------------------------------------------------------ registry

register_rule(
    "SPF101",
    "speculated-value-escapes-unverified",
    Severity.ERROR,
    "a value produced by a speculator can reach a commit point "
    "(send/broadcast payload) without passing a check/verify on some "
    "control-flow path (interprocedural via return-value summaries)",
)
register_rule(
    "SPF102",
    "stale-history-speculation",
    Severity.ERROR,
    "a history container feeding the speculator is appended but never "
    "trimmed to the backward window, so arbitrarily old values can be "
    "consumed by a prediction",
)
register_rule(
    "SPF103",
    "out-of-order-correction",
    Severity.ERROR,
    "a correction/recompute step iterates in descending iteration "
    "order; cascade corrections must repair oldest-first",
)

#: Calls that *produce* speculated values.
SPECULATE_NAMES = frozenset({"speculate", "predict", "extrapolate"})
#: Calls that *verify* speculated values.
CHECK_NAMES = frozenset({"check", "verify"})
#: Calls that *commit* a payload to another rank.
COMMIT_NAMES = frozenset({"send", "broadcast"})
#: Calls that *correct* a rejected speculation.
CORRECT_NAMES = frozenset({"correct"})

#: Abstract facts a variable may carry.
SPEC = "spec"          # may hold an unverified speculated value
VERIFIED = "verified"  # that value has been checked on this path

_EMPTY: frozenset[str] = frozenset()
_SPEC_ONLY: frozenset[str] = frozenset({SPEC})


def _iter_calls(stmt: ast.stmt) -> Iterator[ast.Call]:
    """Calls in ``stmt``'s *own* expressions.

    Skips nested defs/lambdas (their bodies run later) and nested
    statements (compound statements such as ``for``/``if`` own their
    header expressions only — the body statements are separate CFG
    nodes and would otherwise be visited twice).
    """
    stack: list[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.stmt) and node is not stmt:
            continue  # nested statement: has its own CFG node
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _iter_calls_deep(stmt: ast.stmt) -> Iterator[ast.Call]:
    """Calls anywhere inside ``stmt`` including nested statements.

    Used where a rule really does want a compound statement's whole
    region (e.g. "a correction call anywhere in this loop's body");
    nested defs/lambdas are still skipped.
    """
    stack: list[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _payload_of(call: ast.Call) -> Optional[ast.expr]:
    """The payload argument of a send/broadcast call, if present."""
    name = call_name(call)
    if name == "send":
        if len(call.args) > 1:
            return call.args[1]
    elif name == "broadcast":
        if call.args:
            return call.args[0]
    for kw in call.keywords:
        if kw.arg == "payload":
            return kw.value
    return None


# --------------------------------------------------------------------------
# SPF101 — dataflow typestate
# --------------------------------------------------------------------------

State = dict[str, frozenset[str]]


class SpecTaintAnalysis(ForwardAnalysis[State]):
    """Tracks which names may hold unverified speculated values.

    ``summaries`` maps ``(path, qualname)`` to True when that function
    may return an unverified speculated value; calls resolved (by the
    call graph) to such functions taint their assignment targets.
    """

    def __init__(
        self,
        callgraph: Optional[CallGraph] = None,
        path: str = "<string>",
        qualname: str = "",
        summaries: Optional[dict[tuple[str, str], bool]] = None,
    ) -> None:
        self.callgraph = callgraph
        self.path = path
        self.qualname = qualname
        self.summaries = summaries or {}
        self._spec_callees: set[int] = set()
        if callgraph is not None:
            for call, callee in callgraph.calls_in(path, qualname):
                if self.summaries.get(callee):
                    self._spec_callees.add(id(call))

    # ------------------------------------------------------------ lattice
    def initial(self) -> State:
        return {}

    def bottom(self) -> State:
        return {}

    def join(self, a: State, b: State) -> State:
        return map_join(a, b)

    # ----------------------------------------------------------- transfer
    def _facts_of(self, expr: ast.expr, state: State) -> frozenset[str]:
        """Abstract facts carried by the value of ``expr``."""
        if isinstance(expr, ast.Name):
            return state.get(expr.id, _EMPTY)
        if isinstance(expr, ast.Call):
            name = call_name(expr)
            if name in SPECULATE_NAMES or id(expr) in self._spec_callees:
                return _SPEC_ONLY
            return _EMPTY  # opaque calls launder taint (compute etc.)
        if isinstance(expr, (ast.YieldFrom, ast.Await)):
            return self._facts_of(expr.value, state)
        if isinstance(expr, ast.Subscript):
            return self._facts_of(expr.value, state)
        if isinstance(expr, ast.Starred):
            return self._facts_of(expr.value, state)
        if isinstance(expr, ast.IfExp):
            return self._facts_of(expr.body, state) | self._facts_of(
                expr.orelse, state
            )
        if isinstance(expr, (ast.BinOp,)):
            return self._facts_of(expr.left, state) | self._facts_of(
                expr.right, state
            )
        if isinstance(expr, ast.UnaryOp):
            return self._facts_of(expr.operand, state)
        if isinstance(expr, ast.BoolOp):
            facts = _EMPTY
            for value in expr.values:
                facts |= self._facts_of(value, state)
            return facts
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            facts = _EMPTY
            for elt in expr.elts:
                facts |= self._facts_of(elt, state)
            return facts
        if isinstance(expr, ast.NamedExpr):
            return self._facts_of(expr.value, state)
        return _EMPTY

    def _assign(self, new: State, target: ast.expr, facts: frozenset[str]) -> None:
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
        elif isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
            if facts:
                base = target.value.id
                new[base] = new.get(base, _EMPTY) | facts

    def transfer(self, node: CFGNode, state: State) -> State:
        stmt = node.stmt
        if stmt is None:
            return state
        new = dict(state)
        # 1. check/verify marks its named spec arguments as verified.
        for call in _iter_calls(stmt):
            if call_name(call) in CHECK_NAMES:
                for arg in list(call.args) + [kw.value for kw in call.keywords]:
                    if isinstance(arg, ast.Name):
                        facts = new.get(arg.id, _EMPTY)
                        if SPEC in facts:
                            new[arg.id] = facts | {VERIFIED}
        # 2. assignments propagate / launder facts.
        if isinstance(stmt, ast.Assign):
            facts = self._facts_of(stmt.value, new)
            for target in stmt.targets:
                self._assign(new, target, facts)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(new, stmt.target, self._facts_of(stmt.value, new))
        elif isinstance(stmt, ast.AugAssign):
            facts = self._facts_of(stmt.value, new)
            if isinstance(stmt.target, ast.Name):
                merged = new.get(stmt.target.id, _EMPTY) | facts
                if merged:
                    new[stmt.target.id] = merged
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    new.pop(target.id, None)
        return new


def _unverified(facts: frozenset[str]) -> bool:
    return SPEC in facts and VERIFIED not in facts


def compute_summaries(callgraph: CallGraph) -> dict[tuple[str, str], bool]:
    """``(path, qualname) -> may return an unverified speculated value``.

    Fixpoint over the call graph: a function is spec-returning if any
    of its ``return`` statements can yield a spec-tainted, unverified
    value, where calls to already-known spec-returning functions count
    as taint sources.
    """
    summaries: dict[tuple[str, str], bool] = {
        key: False for key in callgraph.functions()
    }
    for _ in range(len(summaries) + 1):
        changed = False
        for key in callgraph.functions():
            if summaries[key]:
                continue
            cfg = callgraph.cfg_of(key)
            if cfg is None:  # pragma: no cover - defensive
                continue
            analysis = SpecTaintAnalysis(
                callgraph, path=key[0], qualname=key[1], summaries=summaries
            )
            states = solve_forward(cfg, analysis)
            for node in cfg.stmt_nodes():
                stmt = node.stmt
                if isinstance(stmt, ast.Return) and stmt.value is not None:
                    out = analysis.transfer(node, states[node.uid])
                    if _unverified(analysis._facts_of(stmt.value, out)):
                        summaries[key] = True
                        changed = True
                        break
        if not changed:
            break
    return summaries


def check_spf101(
    module: ModuleGraphs,
    callgraph: Optional[CallGraph] = None,
    summaries: Optional[dict[tuple[str, str], bool]] = None,
) -> Iterator[Diagnostic]:
    """Unverified speculated values reaching send/broadcast commits."""
    for qualname, cfg in sorted(module.cfgs.items()):
        analysis = SpecTaintAnalysis(
            callgraph, path=module.path, qualname=qualname, summaries=summaries
        )
        states = solve_forward(cfg, analysis)
        seen: set[tuple[int, int]] = set()
        for node in cfg.stmt_nodes():
            assert node.stmt is not None
            state = states[node.uid]
            for call in _iter_calls(node.stmt):
                if call_name(call) not in COMMIT_NAMES:
                    continue
                payload = _payload_of(call)
                if not isinstance(payload, ast.Name):
                    continue
                if not _unverified(state.get(payload.id, _EMPTY)):
                    continue
                key = (call.lineno, call.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                yield diag_at(
                    module.path,
                    call,
                    "SPF101",
                    f"speculated value `{payload.id}` reaches "
                    f"`{call_name(call)}(...)` in {qualname} without a "
                    "check/verify on this path; verify (or correct) before "
                    "committing speculative state to other ranks",
                )


# --------------------------------------------------------------------------
# SPF102 — stale history feeding the speculator
# --------------------------------------------------------------------------


def _subscript_root(expr: ast.expr) -> Optional[str]:
    """Root name of a (possibly nested) subscript chain."""
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _names_in(expr: ast.expr) -> set[str]:
    return {
        sub.id
        for sub in ast.walk(expr)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def check_spf102(module: ModuleGraphs) -> Iterator[Diagnostic]:
    """History containers appended but never trimmed feed speculate."""
    for qualname, cfg in sorted(module.cfgs.items()):
        appended: set[str] = set()
        trimmed: set[str] = set()
        assigns: list[tuple[str, set[str]]] = []
        spec_calls: list[ast.Call] = []
        for node in cfg.stmt_nodes():
            stmt = node.stmt
            assert stmt is not None
            for call in _iter_calls(stmt):
                name = call_name(call)
                if name == "append" and isinstance(call.func, ast.Attribute):
                    root = _subscript_root(call.func.value)
                    if root is not None:
                        appended.add(root)
                elif name in ("popleft", "pop", "clear") and isinstance(
                    call.func, ast.Attribute
                ):
                    root = _subscript_root(call.func.value)
                    if root is not None:
                        trimmed.add(root)
                elif name == "deque":
                    # deque(maxlen=...) is self-trimming; credit targets.
                    if any(kw.arg == "maxlen" for kw in call.keywords):
                        trimmed.add("__deque_maxlen__")
                elif name in SPECULATE_NAMES:
                    spec_calls.append(call)
            if isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    if isinstance(target, ast.Subscript):
                        root = _subscript_root(target)
                        if root is not None:
                            trimmed.add(root)
            elif isinstance(stmt, ast.Assign):
                # h = h[-n:]  (slice-reassign trim) and taint tracking.
                value_names = _names_in(stmt.value)
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        assigns.append((target.id, value_names))
                        if (
                            isinstance(stmt.value, ast.Subscript)
                            and isinstance(stmt.value.slice, ast.Slice)
                            and _subscript_root(stmt.value) == target.id
                        ):
                            trimmed.add(target.id)
        # deque(maxlen=...) anywhere in the function protects every
        # container assigned from a deque call (coarse but safe).
        if "__deque_maxlen__" in trimmed:
            continue
        unbounded = appended - trimmed
        if not unbounded or not spec_calls:
            continue
        # Fixpoint: which names derive from an unbounded container?
        derived: dict[str, set[str]] = {root: {root} for root in unbounded}
        for _ in range(len(assigns) + 1):
            changed = False
            for target, sources in assigns:
                for root, members in derived.items():
                    if target not in members and sources & members:
                        members.add(target)
                        changed = True
            if not changed:
                break
        for call in spec_calls:
            roots: set[str] = set()
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                for name in _names_in(arg):
                    for root, members in derived.items():
                        if name in members:
                            roots.add(root)
            for root in sorted(roots):
                yield diag_at(
                    module.path,
                    call,
                    "SPF102",
                    f"speculator input derives from history `{root}` which "
                    f"is appended in {qualname} but never trimmed to the "
                    "backward window; values older than the window can be "
                    "consumed (trim with `del h[:-cap]` or use "
                    "deque(maxlen=...))",
                )


# --------------------------------------------------------------------------
# SPF103 — out-of-cascade-order corrections
# --------------------------------------------------------------------------


def _is_descending_iter(expr: ast.expr) -> bool:
    """Does the loop iterable run in descending order?"""
    if isinstance(expr, ast.Call):
        name = call_name(expr)
        if name == "reversed":
            return True
        if name == "sorted":
            for kw in expr.keywords:
                if (
                    kw.arg == "reverse"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                ):
                    return True
        if name == "range" and len(expr.args) == 3:
            step = expr.args[2]
            if (
                isinstance(step, ast.UnaryOp)
                and isinstance(step.op, ast.USub)
                and isinstance(step.operand, ast.Constant)
            ):
                return True
            if isinstance(step, ast.Constant) and isinstance(
                step.value, (int, float)
            ) and step.value < 0:
                return True
    return False


def check_spf103(module: ModuleGraphs) -> Iterator[Diagnostic]:
    """Corrections applied newest-first instead of oldest-first."""
    for qualname, cfg in sorted(module.cfgs.items()):
        seen: set[tuple[int, int]] = set()
        for node in cfg.stmt_nodes():
            stmt = node.stmt
            if not isinstance(stmt, (ast.For, ast.AsyncFor)):
                continue
            if not _is_descending_iter(stmt.iter):
                continue
            for call in _iter_calls_deep(stmt):
                name = call_name(call)
                is_correct = name in CORRECT_NAMES
                if not is_correct and name in ("compute", "advance"):
                    is_correct = any(
                        kw.arg == "phase"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value == "correct"
                        for kw in call.keywords
                    )
                if is_correct and (call.lineno, call.col_offset) not in seen:
                    seen.add((call.lineno, call.col_offset))
                    yield diag_at(
                        module.path,
                        call,
                        "SPF103",
                        f"correction step inside a descending loop in "
                        f"{qualname}; cascade corrections must repair "
                        "iterations oldest-first (ascending), or later "
                        "recomputes consume still-stale state",
                    )


def findings(index: ProgramIndex) -> Iterator[Diagnostic]:
    """Every SPF finding: the type-state passes here, then the
    happens-before pair of :mod:`repro.analysis.races`."""
    summaries = compute_summaries(index.callgraph)
    for module in index.modules:
        yield from check_spf101(module, index.callgraph, summaries)
        yield from check_spf102(module)
        yield from check_spf103(module)
    graph, sites = build_static_hb(index.modules, index.callgraph)
    yield from check_spf110(sites)
    yield from check_spf111(graph, sites)
