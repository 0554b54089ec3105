"""The analyzer registry: one :class:`Tool` entry per analysis family.

A family is a rule table: its code prefix (its catalogue is the
registered codes that carry it), a function from the shared parse to
raw findings (``findings(index)``, living beside the rules) and,
optionally, a function from a shared trace view to verdicts
(``judge(view, diagnostics)``, living beside the contracts; the run
parameters it needs are the trace's own header).
Everything else is stated once, here: ``repro lint | analyze`` are one
CLI handler and one argparse loop over :data:`TOOLS`, the umbrella
``repro check`` iterates the same table, and :meth:`Tool.analyze` is
the one driver — select, suppress, de-duplicate, sort — behind all of
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.analysis import races as spf
from repro.analysis import rules as spl
from repro.analysis.diagnostics import Diagnostic, RuleInfo, rules_of
from repro.analysis.linter import drop_suppressed
from repro.analysis.program import ProgramIndex
from repro.analysis.replay import judge as judge_protocol
from repro.analysis.reporting import (
    render_diag_json,
    render_diag_text,
    rule_catalogue_entries,
)
from repro.analysis.sarif import render_sarif
from repro.analysis.trace_view import TraceView, Verdict

#: One ``parser.add_argument(name, **kwargs)`` call.
Flag = tuple[str, dict[str, Any]]
#: A family's ``--trace`` hook: ``(view, diagnostics) -> (report lines,
#: verdicts, failing count)``.  The report is printed as is, a line per
#: verdict included; a non-zero failing count fails the run even when
#: the static report is clean.
Judge = Callable[
    [TraceView, Sequence[Diagnostic]], tuple[list[str], list[Verdict], int]
]


class UnknownRuleCode(ValueError):
    """``--select`` named a code the tool does not own (a usage error)."""


@dataclass(frozen=True)
class Tool:
    """One analysis family as the CLI and ``repro check`` see it."""

    #: Subcommand name (``repro <cli>``).
    cli: str
    #: Tool name: report header and SARIF driver.
    name: str
    help: str
    #: Code prefix: the family's rules are the registered codes
    #: carrying it, and unparseable files are reported under its ``000``.
    prefix: str
    #: The family's raw findings over a shared parse.
    findings: Callable[[ProgramIndex], Iterable[Diagnostic]]
    formats: tuple[str, ...] = ("text", "json", "sarif")
    #: Flags beyond the common ``paths/--format/--select`` set.
    flags: tuple[Flag, ...] = ()
    #: Trace hook; its presence also gives the subcommand ``--trace``
    #: (speclint, the one family without it, predates it).
    judge: Optional[Judge] = None
    trace_help: str = ""

    @property
    def rules(self) -> dict[str, RuleInfo]:
        """The family's catalogue, by code."""
        return rules_of(self.prefix)

    @property
    def syntax_code(self) -> str:
        """Code unparseable files are reported under."""
        return f"{self.prefix}000"

    def analyze(
        self, index: ProgramIndex, select: Optional[Iterable[str]] = None
    ) -> list[Diagnostic]:
        """This family's findings over a shared parse: the selected,
        unsuppressed ones, each once, sorted, with the unparseable
        files under :attr:`syntax_code`.

        ``select`` is case-insensitive; a code that is not this
        family's raises :class:`UnknownRuleCode` (a typo must not turn
        a gate green).
        """
        found = self.findings(index)
        if select is not None:
            wanted = {code.upper() for code in select}
            unknown = wanted - set(self.rules) - {self.syntax_code}
            if unknown:
                raise UnknownRuleCode(
                    f"unknown rule code(s) {', '.join(sorted(unknown))}; "
                    f"{self.name} has {', '.join(self.rules)}"
                )
            found = (diag for diag in found if diag.code in wanted)
        kept = set(drop_suppressed(found, index.sources))
        return sorted([*index.syntax_diags(self.syntax_code), *kept])

    def render(
        self,
        diagnostics: Sequence[Diagnostic],
        fmt: str,
        trace: Optional[Mapping[str, Any]] = None,
    ) -> str:
        """The standalone report in one of :attr:`formats`.

        ``trace`` is a :attr:`judge`'s verdict on a recorded trace,
        ``{"file", "failing", "report"}`` with ``report`` its lines.
        Text prints those lines after the findings; the JSON document
        carries the whole verdict as its ``trace`` member, SARIF as
        ``runs[0].properties.trace``.
        """
        if fmt not in self.formats:
            raise ValueError(f"unknown {self.name} output format {fmt!r}")
        if fmt == "text":
            text = render_diag_text(diagnostics, self.name)
            if trace is None:
                return text
            return "\n".join([text.rstrip("\n"), *trace["report"]])
        if fmt == "json":
            catalogue = {code: info.summary for code, info in self.rules.items()}
            return render_diag_json(diagnostics, self.name, catalogue, trace=trace)
        return render_sarif(
            list(diagnostics), self.name, rule_catalogue_entries(self.rules), trace
        )


TOOLS: tuple[Tool, ...] = (
    Tool(
        cli="lint",
        name="speclint",
        help="run speclint (protocol-aware static analysis)",
        prefix="SPL",
        findings=spl.findings,
        formats=("text", "json"),
        flags=(
            ("--sanitize-selftest", dict(
                action="store_true",
                help="instead of linting, self-test the runtime protocol "
                "sanitizer",
            )),
        ),
    ),
    Tool(
        cli="analyze",
        name="specflow",
        help="run specflow (interprocedural happens-before analysis, "
        "rules SPF1xx)",
        prefix="SPF",
        findings=spf.findings,
        judge=judge_protocol,
        trace_help="replay a recorded event log (JSONL) against the protocol "
        "model and cross-reference the static findings, then check the "
        "occupancy bounds (inbox depth, in-flight sends, cascade depth, "
        "event count) at the (p, FW, iterations) the trace's header "
        "records against its observed maxima",
    ),
)
