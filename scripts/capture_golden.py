"""Capture golden RunReport fields from the current driver (parity anchor).

Two modes:

* **capture** (default) — print the golden JSON document to stdout.
  Redirect it into ``tests/golden/engine_reseat.json`` to (re)pin the
  anchor after a *deliberate* behaviour change.
* **--check** — recompute every case and diff it against the checked-in
  golden file, exiting ``1`` with a field-level drift report when
  anything moved.

``tests/test_engine_golden.py`` runs the same ``CASES`` (one test per
case, so tier-1 gates on every pin) and ``--check`` reports drift field
by field.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict

import numpy as np

from repro.api import RunConfig, run
from repro.apps.jacobi import JacobiSolver, diagonally_dominant_system
from repro.harness import run_nbody
from repro.netsim import ConstantLatency, DelayNetwork
from repro.vm import Cluster, uniform_specs

DEFAULT_GOLDEN = (
    pathlib.Path(__file__).resolve().parent.parent
    / "tests" / "golden" / "engine_reseat.json"
)


def jacobi_case(fw: int, cascade: str) -> dict:
    a, b = diagonally_dominant_system(48, seed=7)
    prog = JacobiSolver(a, b, capacities=[1000.0] * 4, iterations=8, threshold=1e-9)
    cluster = Cluster(
        uniform_specs(4, capacity=1000.0),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(0.4)),
    )
    res = run(RunConfig(prog, fw=fw, cascade=cascade, cluster=cluster))
    return summarize(res)


def nbody_case(fw: int) -> dict:
    _, res = run_nbody(4, fw, config={"n_particles": 120, "iterations": 5})
    return summarize(res)


def nbody_adaptive_case() -> dict:
    """p=8 jittered DES adaptive run: the per-rank WindowChanged
    trajectory is pure virtual-time arithmetic, hence bit-stable."""
    from repro.policy import CostWindow

    _, res = run_nbody(
        8, 1,
        config={"n_particles": 120, "iterations": 12},
        window_policy=CostWindow(epoch=2, min_fw=0, max_fw=3),
    )
    doc = summarize(res)
    doc["window_history"] = [
        [[int(t), int(fw)] for t, fw in history]
        for history in res.window_history.values()
    ]
    doc["final_windows"] = res.final_windows()
    return doc


def summarize(res) -> dict:
    return {
        "makespan": repr(float(res.wall_seconds)),
        "iterations": res.iterations,
        "fw": res.fw,
        "final_digest": [
            repr(float(np.asarray(res.results[r]).sum()))
            for r in sorted(res.results)
        ],
        "stats": [
            {
                "rank": s.rank,
                "spec_made": s.spec_made,
                "spec_accepted": s.spec_accepted,
                "spec_rejected": s.spec_rejected,
                "checks": s.checks,
                "recomputes": s.recomputes,
                "iterations": s.iterations,
                "tainted_sends": s.tainted_sends,
                "messages_sent": s.messages_sent,
                "messages_received": s.messages_received,
            }
            for s in res.stats
        ],
        "breakdown": [
            {
                "span": repr(float(b.span)),
                "totals": {phase: repr(float(t)) for phase, t in b.totals.items()},
            }
            for b in (trace.breakdown() for trace in res.traces)
        ],
    }


#: Case name -> (case function, its arguments): the pinned runs.
#: ``tests/test_engine_golden.py`` runs each one against its pin.
CASES = {
    "jacobi_fw1_recompute": (jacobi_case, 1, "recompute"),
    "jacobi_fw2_recompute": (jacobi_case, 2, "recompute"),
    "jacobi_fw0": (jacobi_case, 0, "recompute"),
    "jacobi_fw2_none": (jacobi_case, 2, "none"),
    "nbody_fw0": (nbody_case, 0),
    "nbody_fw1": (nbody_case, 1),
    "nbody_fw2": (nbody_case, 2),
    "nbody_adaptive": (nbody_adaptive_case,),
}


def capture() -> Dict[str, Any]:
    return {name: case(*args) for name, (case, *args) in CASES.items()}


def drift_report(golden: Dict[str, Any], current: Dict[str, Any]) -> list:
    """Field-level differences between the pinned and recomputed goldens."""
    drifts = []
    for case in sorted(set(golden) | set(current)):
        if case not in current:
            drifts.append(f"{case}: pinned but no longer captured")
            continue
        if case not in golden:
            drifts.append(f"{case}: captured but not pinned (re-capture?)")
            continue
        pinned, now = golden[case], current[case]
        for field in sorted(set(pinned) | set(now)):
            if pinned.get(field) != now.get(field):
                drifts.append(
                    f"{case}.{field}: pinned {pinned.get(field)!r} "
                    f"!= current {now.get(field)!r}"
                )
    return drifts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="diff recomputed goldens against the pinned file; exit 1 on drift",
    )
    parser.add_argument(
        "--golden", type=pathlib.Path, default=DEFAULT_GOLDEN,
        help=f"pinned golden file to check against (default: {DEFAULT_GOLDEN})",
    )
    args = parser.parse_args(argv)

    current = capture()
    if not args.check:
        print(json.dumps(current, indent=2, sort_keys=True))
        return 0

    try:
        golden = json.loads(args.golden.read_text())
    except (OSError, ValueError) as exc:
        print(f"capture_golden: cannot read {args.golden}: {exc}",
              file=sys.stderr)
        return 2

    drifts = drift_report(golden, current)
    if drifts:
        print(f"capture_golden: GOLDEN DRIFT against {args.golden}:",
              file=sys.stderr)
        for line in drifts:
            print(f"  {line}", file=sys.stderr)
        print(
            "  if this change is deliberate, re-pin with:\n"
            f"    python scripts/capture_golden.py > {args.golden}",
            file=sys.stderr,
        )
        return 1
    print(f"capture_golden: {len(current)} cases match {args.golden}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
