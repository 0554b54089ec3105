"""specmc reporters: text, JSON and SARIF, matching lint/analyze.

The JSON document is what CI uploads as an artifact (``repro mc
--report FILE``); the SARIF output lets a violation appear in the same
code-scanning UI as speclint/specflow findings, with the invariant id
as the rule id and the shrunk schedule in the result properties.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.analysis.modelcheck.explorer import McResult
from repro.analysis.modelcheck.model import schedule_to_json
from repro.analysis.reporting import render_sarif_document, stable_json
from repro.engine.invariants import INVARIANTS, specmc_invariant_ids

__all__ = ["report_dict", "render_text", "render_json", "render_sarif_mc"]


def result_dict(result: McResult) -> Dict[str, Any]:
    """JSON-ready representation of one explored configuration."""
    data: Dict[str, Any] = {
        "config": result.config.to_dict(),
        "mutation": result.mutation,
        "explored": result.explored,
        "deduped": result.deduped,
        "sleep_pruned": result.sleep_pruned,
        "transitions": result.transitions,
        "executions": result.executions,
        "max_depth": result.max_depth,
        "exhausted": result.exhausted,
        "elapsed_seconds": round(result.elapsed, 4),
        "violation": (
            result.violation.to_dict() if result.violation is not None else None
        ),
    }
    if result.shrunk_schedule is not None:
        data["shrunk_schedule"] = schedule_to_json(result.shrunk_schedule)
    return data


def report_dict(results: Sequence[McResult]) -> Dict[str, Any]:
    """The full ``repro mc`` report document."""
    return {
        "tool": "specmc",
        "invariants": list(specmc_invariant_ids()),
        "runs": [result_dict(r) for r in results],
        "clean": all(r.clean for r in results),
        "exhausted": all(r.exhausted for r in results),
    }


def render_text(results: Sequence[McResult]) -> str:
    """Human-readable summary, one block per configuration."""
    lines: List[str] = []
    for result in results:
        status = (
            "VIOLATION"
            if result.violation is not None
            else ("exhausted" if result.exhausted else "budget-limited")
        )
        lines.append(f"specmc [{result.config.describe()}]: {status}")
        if result.mutation:
            lines.append(f"  mutation      : {result.mutation}")
        lines.append(
            f"  states        : {result.explored} explored, "
            f"{result.deduped} deduped, {result.sleep_pruned} sleep-pruned"
        )
        lines.append(
            f"  transitions   : {result.transitions} applied over "
            f"{result.executions} replays (max depth {result.max_depth})"
        )
        lines.append(f"  elapsed       : {result.elapsed:.3f}s")
        if result.violation is not None:
            lines.append("  counterexample: " + result.violation.describe()
                         .replace("\n", "\n  "))
            if result.shrunk_schedule is not None:
                steps = " ".join(
                    a.describe() for a in result.shrunk_schedule
                ) or "(empty; deterministic completion reproduces)"
                lines.append(
                    f"  shrunk        : {len(result.shrunk_schedule)} "
                    f"action(s): {steps}"
                )
    if all(r.clean for r in results):
        checked = ", ".join(specmc_invariant_ids())
        lines.append(f"specmc: clean ({checked})")
    return "\n".join(lines)


def render_json(results: Sequence[McResult]) -> str:
    """The report document as pretty-printed JSON."""
    return stable_json(report_dict(results))


def _rules() -> List[Dict[str, Any]]:
    rules: List[Dict[str, Any]] = []
    for invariant_id in specmc_invariant_ids():
        inv = INVARIANTS[invariant_id]
        rules.append(
            {
                "id": invariant_id,
                "name": inv.title,
                "shortDescription": {"text": inv.summary},
                "defaultConfiguration": {"level": "error"},
            }
        )
    return rules


def render_sarif_mc(results: Sequence[McResult]) -> str:
    """SARIF 2.1.0 document; one result per violated invariant."""
    sarif_results: List[Dict[str, Any]] = []
    for result in results:
        violation = result.violation
        if violation is None:
            continue
        schedule = result.counterexample_schedule() or ()
        sarif_results.append(
            {
                "ruleId": violation.invariant,
                "level": "error",
                "message": {
                    "text": (
                        f"[{result.config.describe()}] {violation.details}"
                    )
                },
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": "src/repro/engine/core.py"
                            },
                            "region": {"startLine": 1, "startColumn": 1},
                        }
                    }
                ],
                "properties": {
                    "mutation": result.mutation,
                    "schedule": schedule_to_json(schedule),
                },
            }
        )
    return render_sarif_document("specmc", _rules(), sarif_results)
