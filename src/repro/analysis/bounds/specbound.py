"""specbound driver: buffer summaries + the SPB rule pack over many files.

Shaped exactly like :mod:`repro.analysis.perf.specperf`: build every
module's CFGs, one shared call graph, the phase attribution and the
buffer summaries, then run the SPB401..SPB408 checkers per module.
Findings are ordinary :class:`~repro.analysis.diagnostics.Diagnostic`
records, so the shared reporters, the SARIF writer, the fingerprint
baselines and the ``# specbound: disable=...`` suppression directives
all behave exactly as they do for the other four families.

Entry point: :func:`analyze_paths` (what ``repro bounds`` calls).
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional

from repro.analysis import program
from repro.analysis.bounds.rules import RULE_CHECKERS, BoundContext
from repro.analysis.bounds.summaries import compute_buffer_summaries
from repro.analysis.cfg import CallGraph, ModuleGraphs
from repro.analysis.diagnostics import SPB_RULES, Diagnostic
from repro.analysis.linter import drop_suppressed
from repro.analysis.perf.attribution import build_attribution


def analyze_modules(
    modules: list[ModuleGraphs],
    select: Optional[Iterable[str]] = None,
    callgraph: Optional[CallGraph] = None,
) -> list[Diagnostic]:
    """Run every SPB rule over pre-built module graphs.

    ``callgraph`` lets the umbrella ``repro check`` pass its shared
    :class:`~repro.analysis.program.ProgramIndex` graph instead of
    rebuilding one for the attribution and the buffer summaries.
    """
    wanted = {c.upper() for c in select} if select is not None else None

    def on(code: str) -> bool:
        return wanted is None or code in wanted

    graph = callgraph if callgraph is not None else CallGraph(modules)
    ctx = BoundContext(
        attribution=build_attribution(graph),
        callgraph=graph,
        summaries=compute_buffer_summaries(graph),
    )
    found: list[Diagnostic] = []
    for module in modules:
        for code, checker in sorted(RULE_CHECKERS.items()):
            if on(code):
                found.extend(checker(module, ctx))
    sources = {m.path: m.source for m in modules}
    # A node nested in several loops is visited once per enclosing
    # loop; identical findings collapse to one.
    return sorted(set(drop_suppressed(found, sources)))


analyze_paths = partial(program.analyze_paths, analyze_modules, "SPB000")
analyze_source = partial(program.analyze_source, analyze_modules, "SPB000")
rule_catalogue = partial(program.rule_catalogue, SPB_RULES)
