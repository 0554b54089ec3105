"""spectaint driver: speculation-escape analysis over many files.

Shaped exactly like :mod:`repro.analysis.specflow` and
:mod:`repro.analysis.perf.specperf`: build every module's CFGs, one
shared call graph, the interprocedural taint summaries, then run the
SPT301..SPT308 checkers.  Findings are ordinary
:class:`~repro.analysis.diagnostics.Diagnostic` records, so the shared
reporters, the SARIF writer, the fingerprint baselines and the
``# spectaint: disable=...`` suppression directives all behave exactly
as they do for the other families.

Entry point: :func:`analyze_paths` (what ``repro taint`` calls).  The
umbrella ``repro check`` passes its pre-built
:class:`~repro.analysis.program.ProgramIndex` call graph through the
``callgraph`` parameter so every family shares one parse.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional

from repro.analysis import program
from repro.analysis.cfg import CallGraph, ModuleGraphs
from repro.analysis.diagnostics import SPT_RULES, Diagnostic
from repro.analysis.linter import drop_suppressed
from repro.analysis.taint.lattice import (
    TaintContext,
    commit_lines_of,
    compute_taint_summaries,
    declared_commit_points,
)

# Importing the rules module also registers the SPT rule catalogue.
from repro.analysis.taint.rules import check_dead_rollback, check_module


def analyze_modules(
    modules: list[ModuleGraphs],
    select: Optional[Iterable[str]] = None,
    callgraph: Optional[CallGraph] = None,
) -> list[Diagnostic]:
    """Run every SPT rule over pre-built module graphs."""
    wanted = {c.upper() for c in select} if select is not None else None
    if callgraph is None:
        callgraph = CallGraph(modules)
    commit_points = declared_commit_points(modules)
    commit_lines = {m.path: commit_lines_of(m.source) for m in modules}
    summaries = compute_taint_summaries(callgraph, commit_points, commit_lines)
    ctx = TaintContext(
        callgraph=callgraph,
        summaries=summaries,
        commit_names=frozenset(
            qual.rsplit(".", 1)[-1] for _, qual in commit_points
        ),
        commit_lines=commit_lines,
    )
    found: list[Diagnostic] = []
    for module in modules:
        found.extend(check_module(module, ctx))
    found.extend(check_dead_rollback(callgraph, commit_points))
    if wanted is not None:
        found = [d for d in found if d.code in wanted]
    sources = {m.path: m.source for m in modules}
    return sorted(set(drop_suppressed(found, sources)))


analyze_paths = partial(program.analyze_paths, analyze_modules, "SPT000")
analyze_source = partial(program.analyze_source, analyze_modules, "SPT000")
rule_catalogue = partial(program.rule_catalogue, SPT_RULES)
