"""spectaint: speculation-escape & rollback-safety abstract interpretation.

Forward taint analysis over the specflow CFG + call graph proving
that values derived from unconfirmed speculative receives never reach
an irreversible effect (SPT301, SPT302, SPT307, SPT308), plus the
commit-point annotation API (:func:`commits`) and the trace-replay
verdict layer (:func:`check_taint`).
"""

from repro.analysis.taint.annotations import COMMITS_ATTR, commits
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
    "COMMITS_ATTR",
    "COMMITTED",
    "EscapeWitness",
    "SPEC",
    "TaintAnalysis",
    "TaintContext",
    "TaintSummary",
    "check_taint",
    "commit_lines_of",
    "commits",
    "declared_commit_points",
    "find_escapes",
    "findings",
    "solve_taint",
    "unconfirmed",
]
