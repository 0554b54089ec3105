"""SARIF 2.1.0 output for the analysis families.

SARIF (Static Analysis Results Interchange Format) is the lingua
franca code-scanning UIs ingest; emitting it lets CI upload specflow
findings next to any other analyser's.  The document this module
produces is deliberately minimal but valid: one ``run``, the rule
catalogue under ``tool.driver.rules``, one ``result`` per
:class:`~repro.analysis.diagnostics.Diagnostic`.

Every result carries a *fingerprint* in its ``partialFingerprints`` —
a stable hash of ``path::code::message`` that survives unrelated
edits moving the finding a few lines — which code scanning uses to
track a finding across commits.  Accepting a finding is an in-source
``# <tool>: disable=CODE`` directive, not a fingerprint list.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.reporting import (
    SARIF_LEVELS as _LEVELS,
    SARIF_SCHEMA,
    SARIF_VERSION,
    sarif_document,
    stable_json,
)

__all__ = [
    "SARIF_SCHEMA",
    "SARIF_VERSION",
    "fingerprint",
    "render_sarif",
]


def _canonical_path(path: str) -> str:
    """Project-relative POSIX form of a diagnostic path.

    Absolute paths are relativised against the working directory when
    possible so ``repro analyze src/`` in CI fingerprints a finding as
    an in-process run that passed absolute paths does.
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

    Line/column are deliberately excluded so a fingerprint survives
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
    trace: Optional[Mapping[str, Any]] = None,
) -> str:
    """One SARIF 2.1.0 document (pretty-printed JSON) for ``diagnostics``.

    ``rules`` is the advertised catalogue
    (:func:`~repro.analysis.reporting.rule_catalogue_entries` of the
    tool's prefix; :meth:`repro.analysis.tools.Tool.render` builds it).
    A ``--trace`` verdict, when given, is the run's ``properties.trace``.
    """
    document = sarif_document(
        tool_name, rules, [_result(d) for d in sorted(diagnostics)]
    )
    if trace is not None:
        document["runs"][0]["properties"] = {"trace": dict(trace)}
    return stable_json(document)
