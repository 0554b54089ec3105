"""specperf driver: attribution + the SPP rule pack over many files.

Shaped exactly like :mod:`repro.analysis.specflow`: build every
module's CFGs, one shared call graph, the phase attribution, then run
the SPP201..SPP208 checkers per module.  Findings are ordinary
:class:`~repro.analysis.diagnostics.Diagnostic` records, so the shared
reporters, the SARIF writer, the fingerprint baselines and the
``# specperf: disable=...`` suppression directives all behave exactly
as they do for speclint/specflow.

Entry point: :func:`analyze_paths` (what ``repro perf-lint`` calls).
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional

from repro.analysis import program
from repro.analysis.cfg import CallGraph, ModuleGraphs
from repro.analysis.diagnostics import SPP_RULES, Diagnostic
from repro.analysis.linter import drop_suppressed
from repro.analysis.perf.attribution import Attribution, build_attribution
from repro.analysis.perf.rules import RULE_CHECKERS


def analyze_modules(
    modules: list[ModuleGraphs],
    select: Optional[Iterable[str]] = None,
    attribution: Optional[Attribution] = None,
    callgraph: Optional[CallGraph] = None,
) -> list[Diagnostic]:
    """Run every SPP rule over pre-built module graphs.

    ``callgraph`` lets the umbrella ``repro check`` pass its shared
    :class:`~repro.analysis.program.ProgramIndex` graph instead of
    rebuilding one for the attribution.
    """
    wanted = {c.upper() for c in select} if select is not None else None

    def on(code: str) -> bool:
        return wanted is None or code in wanted

    if attribution is None:
        attribution = build_attribution(
            callgraph if callgraph is not None else CallGraph(modules)
        )
    found: list[Diagnostic] = []
    for module in modules:
        for code, checker in sorted(RULE_CHECKERS.items()):
            if on(code):
                found.extend(checker(module, attribution))
    sources = {m.path: m.source for m in modules}
    # A node nested in several loops is visited once per enclosing
    # loop; identical findings collapse to one.
    return sorted(set(drop_suppressed(found, sources)))


analyze_paths = partial(program.analyze_paths, analyze_modules, "SPP000")
analyze_source = partial(program.analyze_source, analyze_modules, "SPP000")
rule_catalogue = partial(program.rule_catalogue, SPP_RULES)
