"""Suppression directives: the one parser every family's findings pass.

Suppression syntax (checked per physical line of the diagnostic):

``# speclint: disable=SPL001``
    Suppress the listed rule(s) on this line (comma-separated,
    ``all`` suppresses every rule).
``# speclint: disable-file=SPL003``
    Anywhere in the file: suppress the listed rule(s) for the whole
    file (used e.g. by wall-clock backends that legitimately read the
    real clock).

The same directives spelled ``# specflow: ...``, ``# specperf: ...``,
``# spectaint: ...`` or ``# specbound: ...`` are honoured too, so
SPF1xx/SPP2xx/SPT3xx/SPB4xx suppressions read naturally next to the
tool that emits them; all spellings suppress all rule families (codes
disambiguate), and one directive may name ids from several tools at
once (``# speclint: disable=SPL001,SPT301``).

:func:`parse_suppressions` is the single implementation; the one
driver (:meth:`repro.analysis.tools.Tool.analyze`) routes every
family's findings through :func:`drop_suppressed`.
"""

from __future__ import annotations

import re
from typing import Iterable

from repro.analysis.diagnostics import Diagnostic

_LINE_DIRECTIVE = re.compile(
    r"#\s*spec(?:lint|flow|perf|taint|bound):\s*disable=([A-Za-z0-9_,\s]+)"
)
_FILE_DIRECTIVE = re.compile(
    r"#\s*spec(?:lint|flow|perf|taint|bound):\s*disable-file=([A-Za-z0-9_,\s]+)"
)


def _parse_codes(raw: str) -> set[str]:
    return {part.strip().upper() for part in raw.split(",") if part.strip()}


def parse_suppressions(source: str) -> tuple[dict[int, set[str]], set[str]]:
    """(per-line, file-wide) suppressed rule codes from directives.

    Every directive on a line contributes (a line may carry both a
    ``# speclint:`` and a ``# spectaint:`` directive), and every
    spelling accepts every family's codes.
    """
    per_line: dict[int, set[str]] = {}
    file_wide: set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        for match in _FILE_DIRECTIVE.finditer(line):
            file_wide |= _parse_codes(match.group(1))
        # Strip file-wide directives first: the line regex would also
        # match inside ``disable-file=...`` ("disable" is a prefix).
        remainder = _FILE_DIRECTIVE.sub("", line)
        for match in _LINE_DIRECTIVE.finditer(remainder):
            per_line.setdefault(lineno, set()).update(_parse_codes(match.group(1)))
    return per_line, file_wide


def _suppressed(
    diag: Diagnostic, per_line: dict[int, set[str]], file_wide: set[str]
) -> bool:
    codes = per_line.get(diag.line, set()) | file_wide
    return bool(codes) and (diag.code.upper() in codes or "ALL" in codes)


def drop_suppressed(
    diagnostics: Iterable[Diagnostic], sources: dict[str, str]
) -> list[Diagnostic]:
    """Filter findings through the suppression directives of their files.

    ``sources`` maps diagnostic paths to their source text; findings in
    unknown files pass through unfiltered.
    """
    parsed: dict[str, tuple[dict[int, set[str]], set[str]]] = {}
    kept: list[Diagnostic] = []
    for diag in diagnostics:
        source = sources.get(diag.path)
        if source is None:
            kept.append(diag)
            continue
        if diag.path not in parsed:
            parsed[diag.path] = parse_suppressions(source)
        per_line, file_wide = parsed[diag.path]
        if not _suppressed(diag, per_line, file_wide):
            kept.append(diag)
    return kept
