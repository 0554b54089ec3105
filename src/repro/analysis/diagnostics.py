"""Diagnostic records and the speclint rule registry.

Every finding produced by a speclint rule is a :class:`Diagnostic`:
an immutable (path, line, col, code, severity, message) record that
reporters serialise and the CLI turns into an exit code.

Rules register themselves in :data:`RULES` via :func:`register_rule`
so the linter, the docs generator, and the test-suite all enumerate
the same canonical set.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import Callable, Iterator


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


def syntax_diagnostic(path: str, exc: SyntaxError, code: str) -> Diagnostic:
    """A family's unparseable-file finding (SPL000/SPF000/.../SPB000)."""
    return Diagnostic(
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        code=code,
        severity=Severity.ERROR,
        message=f"syntax error: {exc.msg}",
    )


#: A rule is a callable: (module AST, path, source) -> iterator of findings.
RuleFn = Callable[[ast.Module, str, str], Iterator[Diagnostic]]


@dataclass(frozen=True)
class Rule:
    """A registered speclint rule."""

    code: str
    name: str
    severity: Severity
    summary: str
    check: RuleFn = field(compare=False)


#: Canonical rule registry, keyed by code (SPL001..SPL006).
RULES: dict[str, Rule] = {}


@dataclass(frozen=True)
class RuleInfo:
    """Metadata for a specflow (SPF1xx) rule.

    Unlike speclint's :class:`Rule`, specflow rules are whole-program
    analyses driven by :mod:`repro.analysis.specflow`, not per-module
    callables — the registry records the catalogue (code, severity,
    summary) that reporters, SARIF output and the docs enumerate.
    """

    code: str
    name: str
    severity: Severity
    summary: str


#: specflow rule catalogue, keyed by code (SPF101..SPF111).
SPF_RULES: dict[str, RuleInfo] = {}


def register_spf_rule(
    code: str, name: str, severity: Severity, summary: str
) -> RuleInfo:
    """Register one specflow rule's metadata (idempotence is an error)."""
    if code in SPF_RULES:  # pragma: no cover - programming error
        raise ValueError(f"duplicate specflow rule code {code}")
    info = RuleInfo(code=code, name=name, severity=severity, summary=summary)
    SPF_RULES[code] = info
    return info


def all_spf_codes() -> list[str]:
    """Sorted list of registered specflow rule codes."""
    return sorted(SPF_RULES)


#: specperf rule catalogue, keyed by code (SPP201..SPP208).  Like the
#: SPF registry these are whole-program analyses driven by
#: :mod:`repro.analysis.perf`; the registry records the metadata the
#: reporters, SARIF output and the docs enumerate.
SPP_RULES: dict[str, RuleInfo] = {}


def register_spp_rule(
    code: str, name: str, severity: Severity, summary: str
) -> RuleInfo:
    """Register one specperf rule's metadata (idempotence is an error)."""
    if code in SPP_RULES:  # pragma: no cover - programming error
        raise ValueError(f"duplicate specperf rule code {code}")
    info = RuleInfo(code=code, name=name, severity=severity, summary=summary)
    SPP_RULES[code] = info
    return info


def all_spp_codes() -> list[str]:
    """Sorted list of registered specperf rule codes."""
    return sorted(SPP_RULES)


#: spectaint rule catalogue, keyed by code (SPT301..SPT308).  Like the
#: SPF/SPP registries these are whole-program analyses driven by
#: :mod:`repro.analysis.taint`; the registry records the metadata the
#: reporters, SARIF output and the docs enumerate.
SPT_RULES: dict[str, RuleInfo] = {}


def register_spt_rule(
    code: str, name: str, severity: Severity, summary: str
) -> RuleInfo:
    """Register one spectaint rule's metadata (idempotence is an error)."""
    if code in SPT_RULES:  # pragma: no cover - programming error
        raise ValueError(f"duplicate spectaint rule code {code}")
    info = RuleInfo(code=code, name=name, severity=severity, summary=summary)
    SPT_RULES[code] = info
    return info


def all_spt_codes() -> list[str]:
    """Sorted list of registered spectaint rule codes."""
    return sorted(SPT_RULES)


#: specbound rule catalogue, keyed by code (SPB401..SPB408).  Like the
#: SPF/SPP/SPT registries these are whole-program analyses driven by
#: :mod:`repro.analysis.bounds`; the registry records the metadata the
#: reporters, SARIF output and the docs enumerate.
SPB_RULES: dict[str, RuleInfo] = {}


def register_spb_rule(
    code: str, name: str, severity: Severity, summary: str
) -> RuleInfo:
    """Register one specbound rule's metadata (idempotence is an error)."""
    if code in SPB_RULES:  # pragma: no cover - programming error
        raise ValueError(f"duplicate specbound rule code {code}")
    info = RuleInfo(code=code, name=name, severity=severity, summary=summary)
    SPB_RULES[code] = info
    return info


def all_spb_codes() -> list[str]:
    """Sorted list of registered specbound rule codes."""
    return sorted(SPB_RULES)


def register_rule(
    code: str, name: str, severity: Severity, summary: str
) -> Callable[[RuleFn], RuleFn]:
    """Decorator registering ``fn`` as the checker for ``code``."""

    def wrap(fn: RuleFn) -> RuleFn:
        if code in RULES:  # pragma: no cover - programming error
            raise ValueError(f"duplicate rule code {code}")
        RULES[code] = Rule(
            code=code, name=name, severity=severity, summary=summary, check=fn
        )
        return fn

    return wrap


def all_rule_codes() -> list[str]:
    """Sorted list of registered rule codes."""
    return sorted(RULES)
