"""Control-flow graphs and the interprocedural call graph.

The path-sensitive analyses (:mod:`repro.analysis.races`,
:mod:`repro.analysis.taint`) need to reason about *paths*, not just
syntax: "can a speculated value reach a send without passing a check
on **some** path?" is a reachability question.  This module builds the
graphs those questions are asked over:

* :func:`build_cfg` — a statement-level control-flow graph for one
  function (``if``/loops/``try``/``return``/``break``/``continue``
  modelled; everything else is straight-line).  Precision notes:
  exceptions are approximated by an edge from every statement of a
  ``try`` body to each handler; loop bodies get a back edge, so two
  statements inside one loop are mutually reachable (deliberately —
  that is exactly the "unordered" answer the race analysis wants).
* :class:`ModuleGraphs` — all CFGs of one module, keyed by dotted
  qualname (nested and decorated functions included).
* :class:`CallGraph` — name-based interprocedural edges across a set
  of modules.  Resolution is intentionally simple (a call ``f(...)``
  or ``obj.f(...)`` targets every analysed function whose name is
  ``f``): sound for the package's idioms, cheap enough to run on every
  commit, and honest about being an over-approximation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Loop statements, as the rule packs match them.
LOOPS = (ast.For, ast.AsyncFor, ast.While)


@dataclass
class CFGNode:
    """One node of a statement-level CFG."""

    uid: int
    stmt: Optional[ast.stmt]
    label: str
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)

    @property
    def line(self) -> int:
        """Source line of the underlying statement (1 for synthetic)."""
        return getattr(self.stmt, "lineno", 1) if self.stmt is not None else 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CFGNode {self.uid} {self.label} ->{self.succs}>"


class CFG:
    """Statement-level control-flow graph of one function."""

    def __init__(self, func: FunctionNode, qualname: str, path: str) -> None:
        self.func = func
        self.qualname = qualname
        self.path = path
        self.nodes: dict[int, CFGNode] = {}
        self._next_uid = 0
        self.entry = self._new_node(None, "entry").uid
        self.exit = self._new_node(None, "exit").uid

    # -------------------------------------------------------- construction
    def _new_node(self, stmt: Optional[ast.stmt], label: str) -> CFGNode:
        node = CFGNode(uid=self._next_uid, stmt=stmt, label=label)
        self._next_uid += 1
        self.nodes[node.uid] = node
        return node

    def _connect(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succs:
            self.nodes[src].succs.append(dst)
            self.nodes[dst].preds.append(src)

    # ------------------------------------------------------------- queries
    def stmt_nodes(self) -> Iterator[CFGNode]:
        """All non-synthetic nodes, uid order."""
        for uid in sorted(self.nodes):
            node = self.nodes[uid]
            if node.stmt is not None:
                yield node

    def reachable_from(self, uid: int) -> set[int]:
        """uids reachable from ``uid`` by one or more edges."""
        seen: set[int] = set()
        stack = list(self.nodes[uid].succs)
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self.nodes[cur].succs)
        return seen

    def strictly_ordered(self, a: int, b: int) -> bool:
        """Does every execution reaching ``b`` pass ``a`` first?

        Approximated as: ``b`` is reachable from ``a`` and ``a`` is not
        reachable from ``b`` (nodes in a common loop are *unordered* —
        the conservative answer for race detection).
        """
        return b in self.reachable_from(a) and a not in self.reachable_from(b)

    def __repr__(self) -> str:
        return f"<CFG {self.qualname} nodes={len(self.nodes)}>"


class _Builder:
    """Recursive-descent CFG construction (one function body)."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        #: Stack of (break targets, continue targets) per enclosing loop.
        self._loops: list[tuple[list[int], list[int]]] = []
        #: Entries of handlers currently able to catch raises.
        self._handlers: list[list[int]] = []

    def build(self) -> None:
        frontier = self._stmts(self.cfg.func.body, [self.cfg.entry])
        for uid in frontier:
            self.cfg._connect(uid, self.cfg.exit)

    # ------------------------------------------------------------ helpers
    def _seal(self, stmt: ast.stmt, label: str, frontier: list[int]) -> CFGNode:
        node = self.cfg._new_node(stmt, label)
        for uid in frontier:
            self.cfg._connect(uid, node.uid)
        # Any statement may raise into an active handler (coarse).
        for handlers in self._handlers:
            for h in handlers:
                self.cfg._connect(node.uid, h)
        return node

    def _stmts(self, body: list[ast.stmt], frontier: list[int]) -> list[int]:
        for stmt in body:
            frontier = self._stmt(stmt, frontier)
        return frontier

    # ---------------------------------------------------------- dispatch
    def _stmt(self, stmt: ast.stmt, frontier: list[int]) -> list[int]:
        if not frontier:
            return []  # dead code after return/raise/break
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            node = self._seal(stmt, "with", frontier)
            return self._stmts(stmt.body, [node.uid])
        if isinstance(stmt, ast.Return):
            node = self._seal(stmt, "return", frontier)
            self.cfg._connect(node.uid, self.cfg.exit)
            return []
        if isinstance(stmt, ast.Raise):
            node = self._seal(stmt, "raise", frontier)
            if not self._handlers:
                self.cfg._connect(node.uid, self.cfg.exit)
            return []
        if isinstance(stmt, ast.Break):
            node = self._seal(stmt, "break", frontier)
            if self._loops:
                self._loops[-1][0].append(node.uid)
            return []
        if isinstance(stmt, ast.Continue):
            node = self._seal(stmt, "continue", frontier)
            if self._loops:
                self._loops[-1][1].append(node.uid)
            return []
        # Straight-line statement (incl. nested defs, treated opaquely).
        node = self._seal(stmt, type(stmt).__name__.lower(), frontier)
        return [node.uid]

    def _if(self, stmt: ast.If, frontier: list[int]) -> list[int]:
        cond = self._seal(stmt, "if", frontier)
        then_out = self._stmts(stmt.body, [cond.uid])
        else_out = self._stmts(stmt.orelse, [cond.uid]) if stmt.orelse else [cond.uid]
        return then_out + else_out

    def _loop(
        self, stmt: Union[ast.While, ast.For, ast.AsyncFor], frontier: list[int]
    ) -> list[int]:
        head = self._seal(stmt, "loop", frontier)
        breaks: list[int] = []
        continues: list[int] = []
        self._loops.append((breaks, continues))
        body_out = self._stmts(stmt.body, [head.uid])
        self._loops.pop()
        for uid in body_out + continues:
            self.cfg._connect(uid, head.uid)  # back edge
        else_out = self._stmts(stmt.orelse, [head.uid]) if stmt.orelse else [head.uid]
        # Loop may run zero times (While/For) -> fall through from head.
        return else_out + breaks

    def _try(self, stmt: ast.Try, frontier: list[int]) -> list[int]:
        head = self._seal(stmt, "try", frontier)
        handler_entries: list[int] = []
        handler_nodes: list[CFGNode] = []
        for handler in stmt.handlers:
            node = self.cfg._new_node(handler, "except")
            handler_entries.append(node.uid)
            handler_nodes.append(node)
        self._handlers.append(handler_entries)
        body_out = self._stmts(stmt.body, [head.uid])
        self._handlers.pop()
        # A raise anywhere in the body (incl. its first statement) may
        # land in each handler.
        for uid in handler_entries:
            self.cfg._connect(head.uid, uid)
        outs: list[int] = list(body_out)
        for node in handler_nodes:
            assert isinstance(node.stmt, ast.ExceptHandler)
            outs.extend(self._stmts(node.stmt.body, [node.uid]))
        if stmt.orelse:
            outs = self._stmts(stmt.orelse, body_out) + outs[len(body_out):]
        if stmt.finalbody:
            outs = self._stmts(stmt.finalbody, outs)
        return outs


def walk_own(stmt: ast.stmt) -> Iterator[ast.AST]:
    """AST nodes belonging to ``stmt``'s *own* expressions.

    Unlike ``ast.walk`` this prunes (a) nested function/lambda bodies,
    which execute later and have their own CFGs, and (b) nested
    statements, which compound statements (``for``/``if``/``try``)
    contain syntactically but which are separate CFG nodes — walking
    them here would attribute every call in a loop body to the loop
    head as well, double-counting each site.
    """
    stack: list[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.stmt) and node is not stmt:
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def walk_body(stmts: list[ast.stmt]) -> Iterator[ast.AST]:
    """Every AST node under ``stmts``, pruning nested function bodies."""
    stack: list[ast.AST] = list(stmts)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def loops_of(func: FunctionNode) -> list[ast.stmt]:
    """All ``for``/``while`` loops of the function's own body."""
    return [n for n in walk_body(func.body) if isinstance(n, LOOPS)]


def call_name(call: ast.Call) -> Optional[str]:
    """Terminal name of a call expression, if it has one."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def build_cfg(func: FunctionNode, qualname: str = "", path: str = "<string>") -> CFG:
    """Construct the CFG for one function definition."""
    cfg = CFG(func, qualname or func.name, path)
    _Builder(cfg).build()
    return cfg


# --------------------------------------------------------------------------
# module-level collection
# --------------------------------------------------------------------------


def iter_functions_qualified(
    tree: ast.Module,
) -> Iterator[tuple[str, FunctionNode]]:
    """Every function in the module with its dotted qualname.

    Descends into classes, decorated functions, nested and
    async-nested functions — the full closure forest, not just
    top-level ``FunctionDef``\\ s.
    """

    def walk(node: ast.AST, prefix: str) -> Iterator[tuple[str, FunctionNode]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}" if prefix else child.name
                yield qual, child
                yield from walk(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                qual = f"{prefix}{child.name}" if prefix else child.name
                yield from walk(child, f"{qual}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


@dataclass
class ModuleGraphs:
    """All CFGs of one module plus the parsed tree and source."""

    path: str
    tree: ast.Module
    source: str
    cfgs: dict[str, CFG] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, path: str = "<string>") -> "ModuleGraphs":
        """Parse and build every function's CFG (raises SyntaxError)."""
        tree = ast.parse(source, filename=path)
        graphs = cls(path=path, tree=tree, source=source)
        for qual, func in iter_functions_qualified(tree):
            graphs.cfgs[qual] = build_cfg(func, qualname=qual, path=path)
        return graphs


class CallGraph:
    """Name-resolved call edges across a set of :class:`ModuleGraphs`.

    Nodes are ``(path, qualname)`` pairs; an edge caller → callee means
    the caller's body contains a call whose terminal name matches the
    callee's function name.  ``callers``/``callees`` expose both
    directions; :meth:`calls_in` lists the resolved call expressions of
    one function (used to apply interprocedural summaries at call
    sites).
    """

    def __init__(self, modules: list[ModuleGraphs]) -> None:
        self.modules = modules
        #: function name -> [(path, qualname)] of definitions.
        self._by_name: dict[str, list[tuple[str, str]]] = {}
        for mod in modules:
            for qual, cfg in mod.cfgs.items():
                name = qual.rsplit(".", 1)[-1]
                self._by_name.setdefault(name, []).append((mod.path, qual))
        self.callees: dict[tuple[str, str], set[tuple[str, str]]] = {}
        self.callers: dict[tuple[str, str], set[tuple[str, str]]] = {}
        self._call_sites: dict[tuple[str, str], list[tuple[ast.Call, tuple[str, str]]]] = {}
        for mod in modules:
            for qual, cfg in mod.cfgs.items():
                key = (mod.path, qual)
                self.callees.setdefault(key, set())
                self._call_sites.setdefault(key, [])
                for call, callee in self._resolve_calls(cfg):
                    self.callees[key].add(callee)
                    self.callers.setdefault(callee, set()).add(key)
                    self._call_sites[key].append((call, callee))

    def _resolve_calls(
        self, cfg: CFG
    ) -> Iterator[tuple[ast.Call, tuple[str, str]]]:
        for node in cfg.stmt_nodes():
            assert node.stmt is not None
            for sub in walk_own(node.stmt):
                if not isinstance(sub, ast.Call):
                    continue
                name = call_name(sub)
                if name is None:
                    continue
                for target in self._by_name.get(name, []):
                    yield sub, target

    def calls_in(self, path: str, qualname: str) -> list[tuple[ast.Call, tuple[str, str]]]:
        """Resolved ``(call expression, callee key)`` pairs of one function."""
        return self._call_sites.get((path, qualname), [])

    def functions(self) -> list[tuple[str, str]]:
        """All ``(path, qualname)`` keys, deterministic order."""
        return sorted(self._call_sites)

    def cfg_of(self, key: tuple[str, str]) -> Optional[CFG]:
        """The CFG behind a call-graph key."""
        for mod in self.modules:
            if mod.path == key[0]:
                return mod.cfgs.get(key[1])
        return None
