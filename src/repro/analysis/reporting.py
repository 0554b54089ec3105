"""Shared report plumbing for the analysis tools.

speclint, specflow, specmc and specbound all ship the same three
output shapes — a ``path:line:col`` text listing with a summary line,
a stable JSON document, and a SARIF 2.1.0 run — and before this
module each tool carried its own copy of the scaffolding.  The shared
pieces live here exactly once:

* :func:`stable_json` — the canonical serialisation every JSON
  artifact uses (``indent=2, sort_keys=True``), so reports are
  byte-reproducible across runs and machines;
* :func:`render_diag_text` / :func:`render_diag_json` — the
  diagnostic-list reporters (speclint, specflow and specbound all emit
  :class:`~repro.analysis.diagnostics.Diagnostic` records);
* :func:`sarif_document` / :func:`render_sarif_document` — the SARIF
  envelope (schema pin, tool driver, rule catalogue) that
  ``analysis/sarif.py`` and ``modelcheck/report.py`` fill with their
  own results.

Tool-specific logic — fingerprints, result records — stays
with each tool; only the presentation scaffolding is shared.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic, Severity

#: SARIF schema pinned by every writer in this package.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: ``informationUri`` advertised by every tool driver.
TOOL_URI = "https://github.com/repro/speculative-computation"

#: Severity → SARIF level, shared by every SARIF writer.
SARIF_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def stable_json(payload: Any, trailing_newline: bool = True) -> str:
    """The canonical JSON serialisation (deterministic byte-for-byte)."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    return text + "\n" if trailing_newline else text


def render_diag_text(
    diagnostics: Sequence[Diagnostic], tool: str = "speclint"
) -> str:
    """One ``path:line:col: CODE [severity] message`` line per finding,
    followed by a summary line."""
    lines = [diag.format_text() for diag in diagnostics]
    errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    warnings = len(diagnostics) - errors
    if diagnostics:
        lines.append(f"{tool}: {errors} error(s), {warnings} warning(s)")
    else:
        lines.append(f"{tool}: clean")
    return "\n".join(lines)


def render_diag_json(
    diagnostics: Sequence[Diagnostic],
    tool: str,
    catalogue: Mapping[str, str],
    trailing_newline: bool = False,
    trace: Optional[Mapping[str, Any]] = None,
) -> str:
    """Stable JSON document: rule catalogue, summary counts, findings,
    and the ``--trace`` verdict as the ``trace`` member when given."""
    errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    payload = {
        "tool": tool,
        "rules": dict(catalogue),
        "summary": {
            "total": len(diagnostics),
            "errors": errors,
            "warnings": len(diagnostics) - errors,
        },
        "diagnostics": [d.to_dict() for d in diagnostics],
    }
    if trace is not None:
        payload["trace"] = dict(trace)
    return stable_json(payload, trailing_newline=trailing_newline)


def sarif_document(
    tool_name: str,
    rules: Sequence[Dict[str, Any]],
    results: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """The SARIF 2.1.0 envelope: one run, a tool driver, the results."""
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "informationUri": TOOL_URI,
                        "rules": list(rules),
                    }
                },
                "results": list(results),
            }
        ],
    }


def render_sarif_document(
    tool_name: str,
    rules: Sequence[Dict[str, Any]],
    results: Sequence[Dict[str, Any]],
) -> str:
    """:func:`sarif_document` serialised canonically (with newline)."""
    return stable_json(sarif_document(tool_name, rules, results))


def rule_catalogue_entries(
    infos: Mapping[str, Any]
) -> List[Dict[str, Any]]:
    """SARIF ``tool.driver.rules`` entries for a metadata registry.

    Accepts any mapping code → object with ``name``/``summary``/
    ``severity`` attributes (:class:`RuleInfo` qualifies).
    """
    entries: List[Dict[str, Any]] = []
    for code in sorted(infos):
        info = infos[code]
        entries.append(
            {
                "id": code,
                "name": info.name,
                "shortDescription": {"text": info.summary},
                "defaultConfiguration": {"level": SARIF_LEVELS[info.severity]},
            }
        )
    return entries
