"""speclint & co.: five static analysis families and a runtime sanitizer.

A family is a rule table — a code prefix, a ``findings(index)``
function from the shared parse
(:class:`~repro.analysis.program.ProgramIndex`) to raw findings, and
optionally a ``judge(view, diagnostics)`` function from the
shared trace view (:class:`~repro.analysis.trace_view.TraceView`) to
:class:`~repro.analysis.trace_view.Verdict` records.  All 25 rules
register in one :data:`~repro.analysis.diagnostics.RULES`; one driver,
:meth:`repro.analysis.tools.Tool.analyze`, selects, suppresses,
de-duplicates and sorts for every family; the CLI builds every
subcommand from one table, :data:`repro.analysis.tools.TOOLS`.

* **speclint** (SPL001, SPL003..SPL008, :mod:`repro.analysis.rules`) —
  per-module AST rules for the silent-failure classes specific to this
  codebase: dropped ``yield from``, nondeterminism, undisciplined
  message tags, payload aliasing, broad excepts swallowing :class:`~repro.des.errors.Interrupt`,
  sans-I/O purity and effect-dispatch exhaustiveness.
* **specflow** (SPF110, SPF111, :mod:`repro.analysis.races`) —
  per-function CFGs + a call graph feed a happens-before race
  analysis of the message-tag families;
  :mod:`repro.analysis.replay` checks the same two rules dynamically
  against a recorded :class:`~repro.trace.events.EventLog`, and runs
  the runtime sanitizer over each rank's records.
* **specperf** (SPP2xx, :mod:`repro.analysis.perf`) — phase
  attribution over the same call graph feeds a hot-path cost rule
  pack; ``--trace`` judges the findings against the calibrated
  performance model's per-phase time budget.
* **spectaint** (SPT301, SPT302, SPT307, SPT308,
  :mod:`repro.analysis.taint`) —
  forward taint abstract interpretation proving unconfirmed
  speculative values never reach an irreversible effect; ``@commits``
  / ``# spectaint: commit`` annotate legitimate confirmation sites.
* **specbound** (SPB4xx, :mod:`repro.analysis.bounds`) — per-function
  rules flagging a history trim, window, event log, cascade loop or
  iteration-keyed map that no protocol parameter bounds; ``--trace``
  checks the occupancy bounds, at the (p, FW, iterations) the trace's
  header records, against observed maxima.
* :mod:`repro.analysis.sanitizer` — a runtime
  :class:`ProtocolSanitizer` (opt-in via ``REPRO_SANITIZE=1``) that
  asserts DES and forward-window invariants while a simulation runs;
  :mod:`repro.analysis.modelcheck` explores interleavings of the real
  engine against the same invariants.

Entry points: ``repro lint | analyze | perf-lint | taint | bounds
[paths] [--format text|json|sarif] [--select CODE] [--trace LOG]``
and the umbrella ``repro check [paths] [--sarif FILE] [--stats]``
running all five families over one shared parse.
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
from repro.analysis.sarif import (
    apply_baseline,
    fingerprint,
    render_sarif,
)
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
from repro.analysis.perf import rules as _spp_rules  # noqa: F401
from repro.analysis.taint import rules as _spt_rules  # noqa: F401
from repro.analysis.bounds import rules as _spb_rules  # noqa: F401
from repro.analysis.sanitizer import (
    ENV_FLAG,
    ProtocolSanitizer,
    ProtocolViolation,
    run_selftest,
    sanitize_enabled,
    sanitizer_from_env,
)

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
    "apply_baseline",
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
    "ENV_FLAG",
    "ProtocolSanitizer",
    "ProtocolViolation",
    "run_selftest",
    "sanitize_enabled",
    "sanitizer_from_env",
]
