"""speclint: protocol-aware static analysis + runtime sanitizer.

Two complementary halves:

* :mod:`repro.analysis.rules` / :mod:`repro.analysis.linter` — an
  AST-based static pass (rules SPL001..SPL006) that catches the
  silent-failure classes specific to this codebase: dropped ``yield
  from``, blocking receives in speculative paths, nondeterminism,
  undisciplined message tags, payload aliasing, and broad excepts
  swallowing :class:`~repro.des.errors.Interrupt`.
* :mod:`repro.analysis.sanitizer` — a runtime
  :class:`ProtocolSanitizer` (opt-in via ``REPRO_SANITIZE=1``) that
  asserts DES and forward-window invariants while a simulation runs.
* :mod:`repro.analysis.specflow` — the interprocedural half (rules
  SPF101..SPF111): per-function CFGs + a call graph feed a type-state
  taint analysis of the speculate→verify→correct state machine and a
  happens-before race analysis of the message-tag families; findings
  render as text, JSON or SARIF.  :mod:`repro.analysis.replay` checks
  the same rules dynamically against a recorded
  :class:`~repro.trace.events.EventLog` so static findings can be
  confirmed or refuted (differential analysis).

* :mod:`repro.analysis.perf` — the cost half (rules SPP201..SPP208):
  phase attribution over the same call graph feeds a hot-path cost
  rule pack, and ``repro perf-lint --trace`` judges the findings
  against the calibrated performance model's per-phase time budget
  (CONFIRMED / REFUTED / UNOBSERVED cost contracts).

* :mod:`repro.analysis.taint` — the escape half (rules
  SPT301..SPT308): forward taint abstract interpretation over the
  same CFGs + call graph proving unconfirmed speculative values never
  reach an irreversible effect (I/O, sends, stores outliving the
  backward window); ``@commits`` / ``# spectaint: commit`` annotate
  legitimate confirmation sites, and ``repro taint --trace`` judges
  findings against a recorded event log.

* :mod:`repro.analysis.bounds` — the memory half (rules
  SPB401..SPB408): interprocedural buffer summaries over the same
  call graph proving every container the protocol grows is bounded by
  a protocol parameter (BW for history, FW for run-ahead state), and
  ``repro bounds --trace`` checks the derived symbolic occupancy
  bounds against a recorded event log's observed maxima.

Entry points: ``repro lint [paths] [--format json]
[--sanitize-selftest]``, ``repro analyze [paths] [--format
text|json|sarif] [--trace LOG]``, ``repro perf-lint [paths] ...``,
``repro taint [paths] ...``, ``repro bounds [paths] ...`` and the
umbrella ``repro check [paths] [--sarif FILE] [--stats]`` running all
five families over one shared parse
(:class:`~repro.analysis.program.ProgramIndex`).  The CLI builds all
of them from one table, :data:`repro.analysis.tools.TOOLS`.
"""

from repro.analysis.diagnostics import (
    RULES,
    SPB_RULES,
    SPF_RULES,
    SPP_RULES,
    SPT_RULES,
    Diagnostic,
    Rule,
    RuleInfo,
    Severity,
    all_rule_codes,
    all_spb_codes,
    all_spf_codes,
    all_spp_codes,
    all_spt_codes,
    syntax_diagnostic,
)
from repro.analysis.linter import (
    drop_suppressed,
    lint_paths,
    lint_source,
    parse_suppressions,
)
from repro.analysis.program import ProgramIndex, iter_python_files
from repro.analysis.replay import (
    ReplayFinding,
    ReplayReport,
    Verdict,
    cross_reference,
    replay,
)
from repro.analysis.sarif import (
    apply_baseline,
    fingerprint,
    render_sarif,
)
from repro.analysis.specflow import analyze_paths, analyze_source

# Imported for the side effect of registering the SPP, SPT and SPB
# rule catalogues, so the shared reporters' rule listing is
# import-order independent.
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
    "RULES",
    "SPB_RULES",
    "SPF_RULES",
    "SPP_RULES",
    "SPT_RULES",
    "Diagnostic",
    "ProgramIndex",
    "Rule",
    "RuleInfo",
    "Severity",
    "all_rule_codes",
    "all_spb_codes",
    "all_spf_codes",
    "all_spp_codes",
    "all_spt_codes",
    "analyze_paths",
    "analyze_source",
    "apply_baseline",
    "cross_reference",
    "fingerprint",
    "render_sarif",
    "replay",
    "ReplayFinding",
    "ReplayReport",
    "Verdict",
    "drop_suppressed",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
    "syntax_diagnostic",
    "ENV_FLAG",
    "ProtocolSanitizer",
    "ProtocolViolation",
    "run_selftest",
    "sanitize_enabled",
    "sanitizer_from_env",
]
