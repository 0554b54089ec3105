"""The analyzer registry: one :class:`Tool` entry per analysis family.

``repro lint | analyze | perf-lint | taint | bounds`` are one CLI
handler and one argparse loop over :data:`TOOLS`, and the umbrella
``repro check`` iterates the same table — so a family's CLI name,
baseline key, rule catalogue, syntax-error code, extra flags and
trace-replay hook are each stated exactly once, here.

Every tool's run is ``ProgramIndex(paths)`` + ``tool.analyze(index)``:
one shared parse and call graph, the family's ``analyze_modules`` over
it, and the unparseable files reported under the family's ``xxx000``
code.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.analysis import linter, specflow
from repro.analysis.bounds import contracts as occupancy
from repro.analysis.bounds import specbound
from repro.analysis.diagnostics import (
    RULES,
    SPB_RULES,
    SPF_RULES,
    SPP_RULES,
    SPT_RULES,
    Diagnostic,
)
from repro.analysis.perf import contracts as costs
from repro.analysis.perf import specperf
from repro.analysis.program import AnalyzeModules, ProgramIndex, analyze_index
from repro.analysis.replay import cross_reference
from repro.analysis.reporting import (
    render_diag_json,
    render_diag_text,
    rule_catalogue_entries,
)
from repro.analysis.sarif import render_sarif
from repro.analysis.taint import spectaint
from repro.analysis.taint import verdicts as escapes
from repro.trace.events import EventLog

#: One ``parser.add_argument(name, **kwargs)`` call.
Flag = tuple[str, dict[str, Any]]
#: ``(diagnostics, log, args) -> (report lines, failing count)``: judge
#: the static findings against a recorded trace.  A non-zero failing
#: count fails the run even when the static report is clean.
TraceHook = Callable[
    [list[Diagnostic], EventLog, argparse.Namespace], tuple[list[str], int]
]


@dataclass(frozen=True)
class Tool:
    """One analysis family as the CLI and ``repro check`` see it."""

    #: Subcommand name (``repro <cli>``).
    cli: str
    #: Tool name: report header, SARIF driver and baseline-file key.
    name: str
    help: str
    rules: Mapping[str, Any]
    #: Code unparseable files are reported under.
    syntax_code: str
    analyze_modules: AnalyzeModules
    formats: tuple[str, ...] = ("text", "json", "sarif")
    #: Flags beyond the common ``paths/--format/--select`` set.
    flags: tuple[Flag, ...] = ()
    #: Trace-replay hook; its presence also gives the subcommand
    #: ``--trace`` and the fingerprint-baseline flags (speclint, the
    #: one family without it, predates both).
    trace: Optional[TraceHook] = None
    trace_help: str = ""
    #: Registries a standalone JSON / SARIF report advertises when that
    #: is not just ``rules``: speclint and specflow predate the
    #: per-family catalogues and list the union they always have.
    json_rules: tuple[Mapping[str, Any], ...] = ()
    sarif_rules: tuple[Mapping[str, Any], ...] = ()

    def analyze(
        self, index: ProgramIndex, select: Optional[Iterable[str]] = None
    ) -> list[Diagnostic]:
        """This family's sorted findings over a shared parse."""
        return analyze_index(self.analyze_modules, self.syntax_code, index, select)

    def render(self, diagnostics: Sequence[Diagnostic], fmt: str) -> str:
        """The standalone report in one of :attr:`formats`."""
        if fmt not in self.formats:
            raise ValueError(f"unknown {self.name} output format {fmt!r}")
        if fmt == "text":
            return render_diag_text(diagnostics, self.name)
        if fmt == "json":
            catalogue = {
                code: info.summary
                for rules in self.json_rules or (self.rules,)
                for code, info in rules.items()
            }
            return render_diag_json(diagnostics, self.name, catalogue)
        entries = [
            entry
            for rules in self.sarif_rules or (self.rules,)
            for entry in rule_catalogue_entries(rules)
        ]
        return render_sarif(list(diagnostics), self.name, entries)


def _verdict_lines(verdicts: Sequence[Any], none_message: str) -> list[str]:
    return [v.format_text() for v in verdicts] or [none_message]


def _specflow_trace(
    diagnostics: list[Diagnostic], log: EventLog, args: argparse.Namespace
) -> tuple[list[str], int]:
    report, verdicts = cross_reference(diagnostics, log, backward_window=args.bw)
    stats = ", ".join(f"{k}={v}" for k, v in sorted(report.stats.items()))
    lines = [f"trace replay: {stats}"]
    lines += [finding.format_text() for finding in report.findings]
    lines += _verdict_lines(
        verdicts, "trace replay: no static SPF findings to cross-reference"
    )
    return lines, len(report.findings)


def _specperf_trace(
    diagnostics: list[Diagnostic], log: EventLog, args: argparse.Namespace
) -> tuple[list[str], int]:
    measured, modeled, verdicts = costs.check_contracts(
        diagnostics, log, p=args.model_p, tol=args.tol
    )
    lines = [costs.format_share_table(measured, modeled)]
    lines += _verdict_lines(
        verdicts, "cost contracts: no specperf findings to cross-reference"
    )
    return lines, sum(v.status == costs.CONFIRMED for v in verdicts)


def _spectaint_trace(
    diagnostics: list[Diagnostic], log: EventLog, args: argparse.Namespace
) -> tuple[list[str], int]:
    witnesses = escapes.find_escapes(log)
    verdicts = escapes.check_taint(diagnostics, log)
    lines = [
        f"trace replay: {len(log)} event(s), "
        f"{len(witnesses)} escape witness(es)"
    ]
    lines += _verdict_lines(
        verdicts, "trace replay: no static SPT findings to cross-reference"
    )
    return lines, sum(v.status == escapes.CONFIRMED for v in verdicts)


def _specbound_trace(
    diagnostics: list[Diagnostic], log: EventLog, args: argparse.Namespace
) -> tuple[list[str], int]:
    verdicts = occupancy.check_occupancy(
        log, p=args.model_p, fw=args.model_fw, bw=args.model_bw
    )
    lines = [
        f"occupancy contracts: {len(log)} event(s), "
        f"{len(verdicts)} contract(s) checked at "
        f"(fw={args.model_fw}, bw={args.model_bw})"
    ]
    lines += [v.format_text() for v in verdicts]
    return lines, sum(v.status == occupancy.REFUTED for v in verdicts)


def _model_p(what: str) -> Flag:
    return ("--model-p", dict(
        type=int, default=None, metavar="P",
        help=f"processor count for the {what} (default: ranks in the trace)",
    ))


TOOLS: tuple[Tool, ...] = (
    Tool(
        cli="lint",
        name="speclint",
        help="run speclint (protocol-aware static analysis)",
        rules=RULES,
        syntax_code="SPL000",
        analyze_modules=linter.analyze_modules,
        formats=("text", "json"),
        flags=(
            ("--sanitize-selftest", dict(
                action="store_true",
                help="instead of linting, self-test the runtime protocol "
                "sanitizer",
            )),
        ),
        json_rules=(RULES, SPF_RULES, SPP_RULES),
    ),
    Tool(
        cli="analyze",
        name="specflow",
        help="run specflow (interprocedural type-state + happens-before "
        "analysis, rules SPF1xx)",
        rules=SPF_RULES,
        syntax_code="SPF000",
        analyze_modules=specflow.analyze_modules,
        flags=(
            ("--bw", dict(
                type=int, default=4, metavar="N",
                help="backward window used by the trace replay's staleness "
                "check",
            )),
        ),
        trace=_specflow_trace,
        trace_help="replay a recorded event log (JSONL) against the protocol "
        "model and cross-reference the static findings",
        json_rules=(RULES, SPF_RULES, SPP_RULES),
        sarif_rules=(RULES, SPF_RULES),
    ),
    Tool(
        cli="perf-lint",
        name="specperf",
        help="run specperf (static hot-path cost analysis with "
        "trace-validated phase-cost contracts, rules SPP2xx)",
        rules=SPP_RULES,
        syntax_code="SPP000",
        analyze_modules=specperf.analyze_modules,
        flags=(
            _model_p("model budget"),
            ("--tol", dict(
                type=float, default=0.05, metavar="X",
                help="share drift tolerated before a finding is CONFIRMED "
                "(default: 0.05)",
            )),
        ),
        trace=_specperf_trace,
        trace_help="replay a recorded event log (JSONL), measure per-phase "
        "time shares, and judge findings against the model's phase budget",
    ),
    Tool(
        cli="taint",
        name="spectaint",
        help="run spectaint (speculation-escape & rollback-safety "
        "abstract interpretation, rules SPT3xx)",
        rules=SPT_RULES,
        syntax_code="SPT000",
        analyze_modules=spectaint.analyze_modules,
        trace=_spectaint_trace,
        trace_help="replay a recorded event log (JSONL): mark each finding "
        "CONFIRMED (a send ran during an open speculation window), "
        "REFUTED or UNOBSERVED",
    ),
    Tool(
        cli="bounds",
        name="specbound",
        help="run specbound (static speculation-resource bound analysis "
        "with trace-validated occupancy contracts, rules SPB4xx)",
        rules=SPB_RULES,
        syntax_code="SPB000",
        analyze_modules=specbound.analyze_modules,
        flags=(
            _model_p("bound evaluation"),
            ("--model-fw", dict(
                type=int, default=1, metavar="N",
                help="forward window the trace was recorded with (default: 1)",
            )),
            ("--model-bw", dict(
                type=int, default=2, metavar="N",
                help="backward window the trace was recorded with "
                "(default: 2, the N-body speculator's)",
            )),
        ),
        trace=_specbound_trace,
        trace_help="check the symbolic occupancy bounds against a recorded "
        "event log's observed per-rank maxima (history-ring span, inbox "
        "depth, in-flight sends, cascade depth, event count); each "
        "contract is CONFIRMED, REFUTED or UNOBSERVED",
    ),
)
