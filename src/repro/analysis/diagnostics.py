"""Diagnostic records and the one rule registry.

Every finding produced by any analysis family is a :class:`Diagnostic`:
an immutable (path, line, col, code, severity, message) record that
reporters serialise and the CLI turns into an exit code.

The three rules of the two families register their metadata in
:data:`RULES` via :func:`register_rule`; a family's catalogue is the
codes carrying its prefix (:func:`rules_of`).  Findings are built by
:func:`diag_at`, which reads the severity from the registry — an emit
site names its code, never a severity.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass
from typing import Union


class Severity(str, enum.Enum):
    """How bad a finding is.  Both severities fail the lint run; the
    distinction is informational (warnings flag heuristic rules)."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One speclint finding at a source location."""

    path: str
    line: int
    col: int
    code: str
    severity: Severity
    message: str

    def format_text(self) -> str:
        """``path:line:col: CODE [severity] message`` (one line)."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} [{self.severity.value}] {self.message}"
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (see the JSON reporter)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
        }


@dataclass(frozen=True)
class RuleInfo:
    """One rule's catalogue entry (what reporters, SARIF and docs list)."""

    code: str
    name: str
    severity: Severity
    summary: str


#: Every family's rules, keyed by code (SPL001, SPL004, SPF111).
RULES: dict[str, RuleInfo] = {}


def register_rule(code: str, name: str, severity: Severity, summary: str) -> None:
    """Register one rule's metadata (registering a code twice is an error)."""
    if code in RULES:  # pragma: no cover - programming error
        raise ValueError(f"duplicate rule code {code}")
    RULES[code] = RuleInfo(code, name, severity, summary)


def rules_of(prefix: str) -> dict[str, RuleInfo]:
    """One family's catalogue: the registered codes with its prefix,
    sorted."""
    return {code: RULES[code] for code in sorted(RULES) if code.startswith(prefix)}


def diag_at(
    path: str, where: Union[ast.AST, tuple[int, int]], code: str, message: str
) -> Diagnostic:
    """Rule ``code``'s finding at an AST node or a ``(line, col)`` pair."""
    if isinstance(where, tuple):
        line, col = where
    else:
        line, col = getattr(where, "lineno", 1), getattr(where, "col_offset", 0)
    return Diagnostic(path, line, col, code, RULES[code].severity, message)


def syntax_diagnostic(path: str, exc: SyntaxError, code: str) -> Diagnostic:
    """A family's unparseable-file finding (SPL000 or SPF000)."""
    return Diagnostic(
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        code=code,
        severity=Severity.ERROR,
        message=f"syntax error: {exc.msg}",
    )
