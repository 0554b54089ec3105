"""speclint & co.: four static analysis families, a trace replay and specmc.

A family is a rule table — its code prefixes, a ``findings(index)``
function from the shared parse
(:class:`~repro.analysis.program.ProgramIndex`) to raw findings, and
optionally a ``judge(view, diagnostics)`` function from the
shared trace view (:class:`~repro.analysis.trace_view.TraceView`) to
:class:`~repro.analysis.trace_view.Verdict` records.  All 8 rules
register in one :data:`~repro.analysis.diagnostics.RULES`; one driver,
:meth:`repro.analysis.tools.Tool.analyze`, selects, suppresses,
de-duplicates and sorts for every family; the CLI builds every
subcommand from one table, :data:`repro.analysis.tools.TOOLS`.

* **speclint** (SPL001, SPL004, :mod:`repro.analysis.rules`) —
  per-module AST rules for two silent-failure classes of the simulator
  API: a dropped ``yield from`` and an undisciplined message tag.
* **specflow** (SPF111, :mod:`repro.analysis.races`) —
  per-function CFGs + a call graph feed a happens-before race
  analysis of the message-tag families;
  :mod:`repro.analysis.replay` checks the rule (and unmatched messages,
  as SPF110) dynamically
  against a recorded :class:`~repro.trace.events.EventLog`, and runs
  the runtime sanitizer over each rank's records.
* **spectaint** (SPT302, :mod:`repro.analysis.taint`) —
  forward taint abstract interpretation proving unconfirmed
  speculative values are never sent to another rank; ``@commits``
  / ``# spectaint: commit`` annotate legitimate confirmation sites.
* **specbound** (SPB4xx and SPP204,
  :mod:`repro.analysis.bounds`) — phase attribution over the same call
  graph feeds per-function rules flagging a window, event log or
  iteration-keyed map that no protocol parameter bounds, and a
  per-message ring scan on the protocol path;
  ``--trace`` checks the occupancy bounds, at the
  (p, FW, iterations) the trace's header records, against observed
  maxima, then judges the SPP findings against the calibrated
  performance model's per-phase time budget.
* :mod:`repro.analysis.modelcheck` (specmc) explores interleavings
  of the real engine against the invariants the runtime sanitizer
  (:mod:`repro.engine.sanitizer`) checks on one live run.

The layer rule is one-way: this package may import the runtime, and
nothing outside it imports ``repro.analysis`` except the front end,
:mod:`repro.cli`.  A run loads no analyzer; the sanitizer, its
invariant registry (:mod:`repro.engine.invariants`) and the
``@commits`` marker (:func:`repro.engine.core.commits`) are runtime.

Entry points: ``repro lint | analyze | taint | bounds
[paths] [--format text|json|sarif] [--select CODE] [--trace LOG]``
and the umbrella ``repro check [paths] [--sarif FILE] [--stats]``
running all four families over one shared parse.
"""

from repro.analysis.diagnostics import (
    RULES,
    Diagnostic,
    RuleInfo,
    Severity,
    syntax_diagnostic,
)
from repro.analysis.linter import drop_suppressed, parse_suppressions
from repro.analysis.program import ProgramIndex, iter_python_files
from repro.analysis.replay import (
    ReplayFinding,
    ReplayReport,
    cross_reference,
    replay,
)
from repro.analysis.sarif import fingerprint, render_sarif
from repro.analysis.trace_view import (
    CONFIRMED,
    REFUTED,
    UNOBSERVED,
    TraceView,
    Verdict,
)

# Imported for the side effect of registering every family's rules, so
# the one registry is complete whichever module is imported first.
from repro.analysis import rules as _spl_rules  # noqa: F401
from repro.analysis import races as _spf_rules  # noqa: F401
from repro.analysis.taint import rules as _spt_rules  # noqa: F401
from repro.analysis.bounds import rules as _spb_rules  # noqa: F401

__all__ = [
    "CONFIRMED",
    "REFUTED",
    "RULES",
    "UNOBSERVED",
    "Diagnostic",
    "ProgramIndex",
    "RuleInfo",
    "Severity",
    "TraceView",
    "Verdict",
    "cross_reference",
    "fingerprint",
    "render_sarif",
    "replay",
    "ReplayFinding",
    "ReplayReport",
    "drop_suppressed",
    "iter_python_files",
    "parse_suppressions",
    "syntax_diagnostic",
]
