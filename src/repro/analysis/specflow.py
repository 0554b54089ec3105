"""specflow driver: interprocedural protocol analysis over many files.

Where speclint (:mod:`repro.analysis.linter`) runs syntactic rules one
module at a time, specflow builds *program-wide* structure first —
every function's CFG (:mod:`repro.analysis.cfg`), a name-resolved
call graph, interprocedural taint summaries — and then runs the SPF
rule families over it:

========  =================================================
SPF101    unverified speculated value reaches a commit point
SPF102    untrimmed history container feeds the speculator
SPF103    correction cascade applied in descending order
SPF110    orphaned tag family (leak / deadlock)
SPF111    unordered conflicting sends at an ambiguous receive
========  =================================================

Entry point: :func:`analyze_paths` (what ``repro analyze`` calls).
Findings are ordinary :class:`~repro.analysis.diagnostics.Diagnostic`
records, so the text/JSON reporters, the SARIF writer and the
suppression directives (``# specflow: disable=SPF101``) all behave
exactly as they do for speclint.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional

from repro.analysis import program
from repro.analysis.cfg import CallGraph, ModuleGraphs
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.linter import drop_suppressed

# Imported for the side effect of registering the SPF rule catalogue.
from repro.analysis import races, typestate  # noqa: F401
from repro.analysis.races import build_static_hb, check_spf110, check_spf111
from repro.analysis.typestate import (
    check_spf101,
    check_spf102,
    check_spf103,
    compute_summaries,
)


def analyze_modules(
    modules: list[ModuleGraphs],
    select: Optional[Iterable[str]] = None,
    callgraph: Optional[CallGraph] = None,
) -> list[Diagnostic]:
    """Run every SPF rule over pre-built module graphs.

    ``callgraph`` lets the umbrella ``repro check`` pass its shared
    :class:`~repro.analysis.program.ProgramIndex` graph instead of
    rebuilding one here.
    """
    wanted = {c.upper() for c in select} if select is not None else None

    def on(code: str) -> bool:
        return wanted is None or code in wanted

    if callgraph is None:
        callgraph = CallGraph(modules)
    summaries = compute_summaries(callgraph)
    found: list[Diagnostic] = []
    for module in modules:
        if on("SPF101"):
            found.extend(check_spf101(module, callgraph, summaries))
        if on("SPF102"):
            found.extend(check_spf102(module))
        if on("SPF103"):
            found.extend(check_spf103(module))
    if on("SPF110") or on("SPF111"):
        graph, sites = build_static_hb(modules, callgraph)
        if on("SPF110"):
            found.extend(check_spf110(sites))
        if on("SPF111"):
            found.extend(check_spf111(graph, sites))
    sources = {m.path: m.source for m in modules}
    return sorted(drop_suppressed(found, sources))


analyze_paths = partial(program.analyze_paths, analyze_modules, "SPF000")
analyze_source = partial(program.analyze_source, analyze_modules, "SPF000")
