"""spectaint: speculation-escape & rollback-safety abstract interpretation.

Forward taint analysis over the specflow CFG + call graph proving
that values derived from unconfirmed speculative receives are never
sent to another rank (SPT302), plus the
trace-replay verdict layer (:func:`check_taint`).  Commit points are
matched by name: a ``@commits`` decorator (the runtime marker is
:func:`repro.engine.core.commits`) or a ``# spectaint: commit`` line.
"""

from repro.analysis.taint.lattice import (
    COMMITTED,
    SPEC,
    TaintAnalysis,
    TaintContext,
    TaintSummary,
    commit_lines_of,
    declared_commit_points,
    solve_taint,
    unconfirmed,
)
from repro.analysis.taint.rules import findings
from repro.analysis.taint.verdicts import EscapeWitness, check_taint, find_escapes

__all__ = [
    "COMMITTED",
    "EscapeWitness",
    "SPEC",
    "TaintAnalysis",
    "TaintContext",
    "TaintSummary",
    "check_taint",
    "commit_lines_of",
    "declared_commit_points",
    "find_escapes",
    "findings",
    "solve_taint",
    "unconfirmed",
]
