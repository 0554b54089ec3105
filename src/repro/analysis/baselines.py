"""Schema-versioned, consolidated fingerprint baselines.

Every analysis family's accepted-findings set lives in **one**
schema-versioned document keyed by tool name
(:attr:`repro.analysis.tools.Tool.name`)::

    {
      "version": 2,
      "tools": {
        "specflow":  {"fingerprints": ["..."]},
        "spectaint": {"fingerprints": ["..."]}
      }
    }

:func:`baseline_for` is the read path and :func:`set_baseline` the
write path (what every ``--write-baseline`` calls: it replaces one
tool's key and keeps the others).  A file of any other version is
rejected loudly rather than read as empty.  Fingerprints are
:func:`repro.analysis.sarif.fingerprint`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.reporting import stable_json

#: Canonical location of the consolidated baseline document.
DEFAULT_BASELINES = Path(".speclint/baselines.json")

#: Current schema version of the consolidated document.
SCHEMA_VERSION = 2


def load_baselines(path: str | Path) -> dict[str, frozenset[str]]:
    """``tool -> accepted fingerprints`` from a consolidated v2 file."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"baseline file {path} has version {version!r}, "
            f"expected {SCHEMA_VERSION} (a consolidated document keyed by "
            "tool; regenerate it with `--write-baseline`)"
        )
    tools = payload.get("tools", {})
    if not isinstance(tools, dict):  # pragma: no cover - defensive
        raise ValueError(f"malformed baseline file {path}")
    return {
        tool: frozenset(str(fp) for fp in entry.get("fingerprints", []))
        for tool, entry in tools.items()
    }


def save_baselines(
    accepted: dict[str, frozenset[str]], path: str | Path
) -> None:
    """Write the consolidated v2 document (deterministic bytes)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": SCHEMA_VERSION,
        "tools": {
            tool: {"fingerprints": sorted(prints)}
            for tool, prints in sorted(accepted.items())
        },
    }
    target.write_text(stable_json(payload), encoding="utf-8")


def baseline_for(
    tool: str, path: str | Path | None = None
) -> frozenset[str]:
    """The accepted fingerprint set of one tool (empty when no file)."""
    consolidated = Path(path) if path is not None else DEFAULT_BASELINES
    if not consolidated.exists():
        return frozenset()
    return load_baselines(consolidated).get(tool, frozenset())


def set_baseline(
    tool: str, fingerprints: frozenset[str], path: str | Path | None = None
) -> None:
    """Replace one tool's accepted set in the consolidated file."""
    target = Path(path) if path is not None else DEFAULT_BASELINES
    accepted = load_baselines(target) if target.exists() else {}
    accepted[tool] = fingerprints
    save_baselines(accepted, target)
