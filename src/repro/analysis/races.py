"""Static message-race detection over a happens-before graph.

The protocol exchanges messages tagged ``(family, iteration)``; the
*family* identifies the conversation (``"vars"``, ``"barrier-in"``,
...).  This pass collects every send/receive **site** in the analysed
sources, resolves each site's tag family (through module-level
constants like ``VARS = "vars"``), and builds a
:class:`HappensBeforeGraph`:

* program-order edges between sites of one function, taken from the
  CFG (two sites in a common loop, or on exclusive branches, are
  *unordered*);
* call-order edges when one function (transitively) calls another;
* communication edges from each send site to every receive site whose
  family can match it.

One rule reads the graph — the specflow family, as ``repro analyze``
runs it through :func:`findings`: **SPF111**, an unordered conflicting
pair.  Two *distinct* send sites share a tag family, neither
happens-before the other, and an ambiguous receive (wildcard tag or
wildcard source) can match both — so which message the receive
consumes depends on delivery timing.  Same-site sends are exempt: the
protocol's iteration sub-tag orders those.

The same :class:`HappensBeforeGraph` is reused dynamically by
:mod:`repro.analysis.replay`, where nodes are trace events instead of
source sites — that is what makes static findings checkable against a
recorded run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterator, Optional

from repro.analysis.cfg import CallGraph, ModuleGraphs, walk_own
from repro.analysis.diagnostics import Diagnostic, Severity, diag_at, register_rule

if TYPE_CHECKING:
    from repro.analysis.program import ProgramIndex

register_rule(
    "SPF111",
    "unordered-conflicting-sends",
    Severity.WARNING,
    "two distinct send sites share a tag family, are unordered in the "
    "happens-before graph, and an ambiguous (wildcard) receive can "
    "match either — the consumed message depends on delivery timing",
)

#: Method names treated as message sends / receives.
SEND_METHODS = frozenset({"send"})
RECV_METHODS = frozenset({"recv"})


@dataclass(frozen=True, order=True)
class CommSite:
    """One send or receive call site."""

    path: str
    qualname: str
    line: int
    col: int
    kind: str                    # "send" | "recv"
    method: str
    family: Optional[str]        # resolved tag family, None = unresolved
    wildcard_tag: bool           # recv with no/None tag
    wildcard_src: bool           # recv with no/None src

    @property
    def key(self) -> tuple[str, str, int, int]:
        return (self.path, self.qualname, self.line, self.col)


class HappensBeforeGraph:
    """Directed graph with reachability queries (HB partial order)."""

    def __init__(self) -> None:
        self._succs: dict[Hashable, set[Hashable]] = {}

    def add_node(self, node: Hashable) -> None:
        self._succs.setdefault(node, set())

    def add_edge(self, a: Hashable, b: Hashable) -> None:
        if a == b:
            return
        self.add_node(a)
        self.add_node(b)
        self._succs[a].add(b)

    def nodes(self) -> list[Hashable]:
        return list(self._succs)

    def ordered(self, a: Hashable, b: Hashable) -> bool:
        """Is there an HB path ``a`` → ``b``?"""
        if a not in self._succs or b not in self._succs:
            return False
        seen: set[Hashable] = set()
        stack = [a]
        while stack:
            cur = stack.pop()
            for nxt in self._succs.get(cur, ()):
                if nxt == b:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def unordered(self, a: Hashable, b: Hashable) -> bool:
        """Neither direction ordered (a true HB race candidate)."""
        return not self.ordered(a, b) and not self.ordered(b, a)

    def edge_count(self) -> int:
        return sum(len(s) for s in self._succs.values())


# --------------------------------------------------------------------------
# site collection
# --------------------------------------------------------------------------


def module_constants(tree: ast.Module) -> dict[str, str]:
    """Module-level ``NAME = "literal"`` string constants."""
    consts: dict[str, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant):
            if isinstance(stmt.value.value, str):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        consts[target.id] = stmt.value.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.value, ast.Constant
        ):
            if isinstance(stmt.value.value, str) and isinstance(
                stmt.target, ast.Name
            ):
                consts[stmt.target.id] = stmt.value.value
    return consts


def _resolve_family(
    tag: Optional[ast.expr], consts: dict[str, str]
) -> tuple[Optional[str], bool]:
    """``(family, wildcard)`` for a tag expression."""
    if tag is None:
        return None, True
    if isinstance(tag, ast.Constant):
        if tag.value is None:
            return None, True
        return str(tag.value), False
    if isinstance(tag, ast.Name):
        return consts.get(tag.id), False
    if isinstance(tag, ast.Tuple) and tag.elts:
        head = tag.elts[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value, False
        if isinstance(head, ast.Name):
            return consts.get(head.id), False
    return None, False


def collect_comm_sites(module: ModuleGraphs) -> list[CommSite]:
    """Every send/receive call site of one module, with families."""
    consts = module_constants(module.tree)
    sites: list[CommSite] = []
    for qualname, cfg in sorted(module.cfgs.items()):
        for node in cfg.stmt_nodes():
            assert node.stmt is not None
            for sub in walk_own(node.stmt):
                if not (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                ):
                    continue
                method = sub.func.attr
                if method in SEND_METHODS:
                    kind = "send"
                elif method in RECV_METHODS:
                    kind = "recv"
                else:
                    continue
                tag_kw = next(
                    (kw.value for kw in sub.keywords if kw.arg == "tag"), None
                )
                if kind == "send" and tag_kw is None:
                    continue  # untagged transport internals (pipes etc.)
                family, wildcard_tag = _resolve_family(tag_kw, consts)
                src_kw = next(
                    (kw.value for kw in sub.keywords if kw.arg == "src"), None
                )
                wildcard_src = src_kw is None or (
                    isinstance(src_kw, ast.Constant) and src_kw.value is None
                )
                sites.append(
                    CommSite(
                        path=module.path,
                        qualname=qualname,
                        line=sub.lineno,
                        col=sub.col_offset,
                        kind=kind,
                        method=method,
                        family=family,
                        wildcard_tag=(kind == "recv" and wildcard_tag),
                        wildcard_src=wildcard_src,
                    )
                )
    return sites


# --------------------------------------------------------------------------
# happens-before construction
# --------------------------------------------------------------------------


def _matches(send: CommSite, recv: CommSite) -> bool:
    """Can ``recv`` consume a message from ``send``?"""
    if recv.wildcard_tag:
        return True
    if send.family is None or recv.family is None:
        return False
    return send.family == recv.family


def build_static_hb(
    modules: list[ModuleGraphs], callgraph: CallGraph
) -> tuple[HappensBeforeGraph, list[CommSite]]:
    """HB graph over all comm sites of ``modules``."""
    graph = HappensBeforeGraph()
    all_sites: list[CommSite] = []
    per_function: dict[tuple[str, str], list[CommSite]] = {}
    for module in modules:
        for site in collect_comm_sites(module):
            all_sites.append(site)
            graph.add_node(site.key)
            per_function.setdefault((site.path, site.qualname), []).append(site)

    # Program order within each function (CFG strict ordering).
    for (path, qualname), sites in per_function.items():
        cfg = callgraph.cfg_of((path, qualname))
        if cfg is None:  # pragma: no cover - defensive
            continue
        located: list[tuple[CommSite, int]] = []
        for site in sites:
            uid = None
            for node in cfg.stmt_nodes():
                assert node.stmt is not None
                for sub in walk_own(node.stmt):
                    if (
                        isinstance(sub, ast.Call)
                        and sub.lineno == site.line
                        and sub.col_offset == site.col
                    ):
                        uid = node.uid
                        break
                if uid is not None:
                    break
            if uid is not None:
                located.append((site, uid))
        for i, (site_a, uid_a) in enumerate(located):
            for site_b, uid_b in located[i + 1:]:
                if uid_a == uid_b:
                    continue  # same statement: treat as unordered
                if cfg.strictly_ordered(uid_a, uid_b):
                    graph.add_edge(site_a.key, site_b.key)
                elif cfg.strictly_ordered(uid_b, uid_a):
                    graph.add_edge(site_b.key, site_a.key)

    # Call order: sites of a callee inherit an edge from the caller's
    # sites that strictly precede the call (coarse: caller -> callee).
    for caller in callgraph.functions():
        for callee in callgraph.callees.get(caller, ()):
            for site_a in per_function.get(caller, []):
                for site_b in per_function.get(callee, []):
                    if caller != callee:
                        graph.add_edge(site_a.key, site_b.key)

    # Communication edges: send -> every matching receive.
    sends = [s for s in all_sites if s.kind == "send"]
    recvs = [s for s in all_sites if s.kind == "recv"]
    for send in sends:
        for recv in recvs:
            if _matches(send, recv):
                graph.add_edge(send.key, recv.key)
    return graph, all_sites


# --------------------------------------------------------------------------
# the rules
# --------------------------------------------------------------------------


def check_spf111(
    graph: HappensBeforeGraph, sites: list[CommSite]
) -> Iterator[Diagnostic]:
    """Unordered conflicting send pairs racing at an ambiguous receive."""
    sends = [s for s in sites if s.kind == "send" and s.family is not None]
    recvs = [s for s in sites if s.kind == "recv"]
    by_family: dict[str, list[CommSite]] = {}
    for send in sends:
        assert send.family is not None
        by_family.setdefault(send.family, []).append(send)
    reported: set[tuple[tuple[str, str, int, int], tuple[str, str, int, int]]] = set()
    for family, family_sends in sorted(by_family.items()):
        if len(family_sends) < 2:
            continue
        ambiguous = [
            r
            for r in recvs
            if (r.wildcard_tag or (r.family == family and r.wildcard_src))
            # Scope to the same module set: a wildcard receive in a
            # different module only races if the modules interact,
            # which the call graph models via the caller edges above.
        ]
        if not ambiguous:
            continue
        ordered_sends = sorted(family_sends)
        for i, a in enumerate(ordered_sends):
            for b in ordered_sends[i + 1:]:
                if a.key == b.key:
                    continue
                if not graph.unordered(a.key, b.key):
                    continue
                pair = (a.key, b.key)
                if pair in reported:
                    continue
                reported.add(pair)
                yield diag_at(
                    a.path,
                    (a.line, a.col),
                    "SPF111",
                    f"sends of tag family {family!r} in "
                    f"{a.qualname} and {b.qualname} are unordered "
                    "in the happens-before graph and a wildcard receive can "
                    "match either; which message is consumed depends on "
                    "delivery timing (disambiguate the tag or order the "
                    "sends)",
                )


def findings(index: ProgramIndex) -> Iterator[Diagnostic]:
    """Every SPF finding over the shared parse."""
    graph, sites = build_static_hb(index.modules, index.callgraph)
    yield from check_spf111(graph, sites)
