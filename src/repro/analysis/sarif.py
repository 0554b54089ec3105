"""SARIF 2.1.0 output and fingerprint baselines for speclint/specflow.

SARIF (Static Analysis Results Interchange Format) is the lingua
franca code-scanning UIs ingest; emitting it lets CI upload specflow
findings next to any other analyser's.  The document this module
produces is deliberately minimal but valid: one ``run``, the rule
catalogue under ``tool.driver.rules``, one ``result`` per
:class:`~repro.analysis.diagnostics.Diagnostic`.

Baselines ride on the same machinery.  Every diagnostic gets a
*fingerprint* — a stable hash of ``path::code::message`` that survives
unrelated edits moving the finding a few lines — recorded both in the
SARIF ``partialFingerprints`` and in the consolidated baseline file CI
checks in (:mod:`repro.analysis.baselines`).  ``repro analyze
--baseline FILE`` drops findings whose fingerprint the baseline
already contains, so the gate only fails on *new* findings.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.reporting import (
    SARIF_LEVELS as _LEVELS,
    SARIF_SCHEMA,
    SARIF_VERSION,
    render_sarif_document,
)

__all__ = [
    "SARIF_SCHEMA",
    "SARIF_VERSION",
    "apply_baseline",
    "fingerprint",
    "render_sarif",
]


def _canonical_path(path: str) -> str:
    """Project-relative POSIX form of a diagnostic path.

    Absolute paths are relativised against the working directory when
    possible so a baseline written by ``repro analyze src/`` in CI
    matches an in-process run that passed absolute paths.
    """
    p = Path(path)
    if p.is_absolute():
        try:
            p = p.relative_to(Path.cwd())
        except ValueError:  # outside the tree: keep absolute
            pass
    return p.as_posix()


def fingerprint(diag: Diagnostic) -> str:
    """Stable identity of a finding: hash of ``path::code::message``.

    Line/column are deliberately excluded so a baseline survives
    unrelated edits above the finding; rule messages are written
    without embedded line numbers for the same reason.
    """
    payload = f"{_canonical_path(diag.path)}::{diag.code}::{diag.message}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def _result(diag: Diagnostic) -> dict[str, object]:
    return {
        "ruleId": diag.code,
        "level": _LEVELS[diag.severity],
        "message": {"text": diag.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": diag.path.replace("\\", "/")},
                    "region": {
                        "startLine": max(diag.line, 1),
                        "startColumn": max(diag.col, 0) + 1,
                    },
                }
            }
        ],
        "partialFingerprints": {"speclint/v1": fingerprint(diag)},
    }


def render_sarif(
    diagnostics: list[Diagnostic],
    tool_name: str,
    rules: list[dict[str, object]],
) -> str:
    """One SARIF 2.1.0 document (pretty-printed JSON) for ``diagnostics``.

    ``rules`` is the advertised catalogue
    (:func:`~repro.analysis.reporting.rule_catalogue_entries` of the
    tool's prefixes; :meth:`repro.analysis.tools.Tool.render` builds it).
    """
    return render_sarif_document(
        tool_name, rules, [_result(d) for d in sorted(diagnostics)]
    )


# --------------------------------------------------------------------------
# baselines
# --------------------------------------------------------------------------


def apply_baseline(
    diagnostics: list[Diagnostic], accepted: frozenset[str]
) -> list[Diagnostic]:
    """Drop findings whose fingerprint the baseline already accepts."""
    return [d for d in diagnostics if fingerprint(d) not in accepted]
