"""``run.py --compare A.json B.json``: did B get worse than A?

One row per workload x metric the two outputs share.  A metric with a
bound in BENCHMARK.json gets a verdict from the choosing-metrics rule:
``worse`` when B's median is worse than A's by more than the bound,
``unresolved`` when either side's own quartile range is wider than the
bound and the two ranges overlap (the runs cannot settle a change of
that size), else ``ok``.  An exact metric must be ``==``.  Per-layer
timings carry no bound and are listed for the reader, with no verdict.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any


def _workloads(path: Path) -> dict[str, Any]:
    doc = json.loads(path.read_text())
    return doc["workloads"] if "workloads" in doc else {doc["workload"]: doc}


def verdict(a: dict[str, Any], b: dict[str, Any], better: str,
            bound: float | None) -> tuple[str, float]:
    """(verdict, fraction of A's median by which B is worse; negative = better)."""
    base = a["median"]
    delta = b["median"] - base if better == "lower" else base - b["median"]
    worse_by = delta / abs(base) if base else (0.0 if delta == 0 else float("inf"))
    if a["exact"] or b["exact"]:
        return ("ok" if a["median"] == b["median"] else "worse"), worse_by
    if bound is None:
        return "-", worse_by
    spread = max((m["q3"] - m["q1"]) / abs(m["median"]) for m in (a, b))
    overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
    if spread > bound and overlap:
        return "unresolved", worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def compare(path_a: Path, path_b: Path, declaration: dict[str, Any]) -> int:
    """Print the table; non-zero on any ``worse`` or a higher failed fraction."""
    declared = {m["name"]: m for kind in ("end_to_end", "per_layer")
                for m in declaration[kind]}
    runs_a, runs_b = _workloads(path_a), _workloads(path_b)
    status = 0
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<18} {'metric':<38} {'A median':>13} {'B median':>13} "
          f"{'B worse by':>11} {'bound':>6}  verdict  (worse by: share of A's median)")
    for name in (n for n in runs_a if n in runs_b):
        a, b = runs_a[name], runs_b[name]
        for metric, spec in declared.items():
            if metric not in a["metrics"] or metric not in b["metrics"]:
                continue
            word, worse_by = verdict(a["metrics"][metric], b["metrics"][metric],
                                     spec["better"], spec.get("bound"))
            bound = f"{spec['bound']:.0%}" if "bound" in spec else "-"
            print(f"{name:<18} {metric:<38} {a['metrics'][metric]['median']:>13.6g} "
                  f"{b['metrics'][metric]['median']:>13.6g} {worse_by:>+11.1%} "
                  f"{bound:>6}  {word}")
            status |= word == "worse"
        if b["failed_frac"] > a["failed_frac"]:
            print(f"{name:<18} failed_frac rose from {a['failed_frac']:.3f} "
                  f"to {b['failed_frac']:.3f}: worse")
            status = 1
    return status
