"""Golden parity: the engine-seated drivers reproduce the pre-refactor
driver bit-for-bit.

``tests/golden/engine_reseat.json`` was captured (by
``scripts/capture_golden.py``) from the monolithic drivers *before*
the protocol moved into :mod:`repro.engine`.  Every field — makespan
``repr``, per-rank final-block digests, and the full speculation
counters — must match exactly: the refactor changed where the
protocol lives, not what it does.  The per-rank phase totals and span
(``breakdown``, ``repr`` floats) were added later, captured before the
phase rows became packed float64 columns, and pin that every
breakdown is still summed in record order.
"""

import json
import pathlib

import numpy as np
import pytest

GOLDEN = json.loads(
    (pathlib.Path(__file__).resolve().parent / "golden" / "engine_reseat.json")
    .read_text()
)

STAT_FIELDS = (
    "rank", "spec_made", "spec_accepted", "spec_rejected", "checks",
    "recomputes", "iterations", "tainted_sends", "messages_sent",
    "messages_received",
)


def summarize(res):
    """Mirror of scripts/capture_golden.py's summary (keep in sync)."""
    return {
        "makespan": repr(float(res.wall_seconds)),
        "iterations": res.iterations,
        "fw": res.fw,
        "final_digest": [
            repr(float(np.asarray(res.results[r]).sum()))
            for r in sorted(res.results)
        ],
        "stats": [{f: getattr(s, f) for f in STAT_FIELDS} for s in res.stats],
        "breakdown": [
            {
                "span": repr(float(b.span)),
                "totals": {phase: repr(float(t)) for phase, t in b.totals.items()},
            }
            for b in (trace.breakdown() for trace in res.traces)
        ],
    }


def run_jacobi(fw, cascade):
    from repro.api import RunConfig, run
    from repro.apps.jacobi import JacobiSolver, diagonally_dominant_system
    from repro.netsim import ConstantLatency, DelayNetwork
    from repro.vm import Cluster, uniform_specs

    a, b = diagonally_dominant_system(48, seed=7)
    prog = JacobiSolver(a, b, capacities=[1000.0] * 4, iterations=8,
                        threshold=1e-9)
    cluster = Cluster(
        uniform_specs(4, capacity=1000.0),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(0.4)),
    )
    return run(RunConfig(prog, fw=fw, cascade=cascade, cluster=cluster))


@pytest.mark.parametrize(
    "case,fw,cascade",
    [
        ("jacobi_fw0", 0, "recompute"),
        ("jacobi_fw1_recompute", 1, "recompute"),
        ("jacobi_fw2_recompute", 2, "recompute"),
        ("jacobi_fw2_none", 2, "none"),
    ],
)
def test_jacobi_matches_pre_refactor_driver(case, fw, cascade):
    assert summarize(run_jacobi(fw, cascade)) == GOLDEN[case]


@pytest.mark.parametrize("case,fw", [("nbody_fw0", 0), ("nbody_fw1", 1)])
def test_nbody_matches_pre_refactor_driver(case, fw):
    from repro.harness import run_nbody

    _, res = run_nbody(4, fw, config={"n_particles": 120, "iterations": 5})
    assert summarize(res) == GOLDEN[case]


def test_nbody_adaptive_matches_pinned_trajectory():
    """The p=8 jittered DES adaptive run is bit-stable: virtual time is
    deterministic, so every rank's WindowChanged trajectory (and the
    stats it steers) must reproduce the pinned golden exactly.  At
    p=8 the 120-particle blocks compute for less than the latency, so
    the ranks widen."""
    from repro.harness import run_nbody
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
    assert doc == GOLDEN["nbody_adaptive"]
    # The trajectory is only interesting if adaptation actually fired.
    assert any(len(h) > 1 for h in res.window_history.values())


# ---------------------------------------------- the --check drift guard
def _load_capture_golden_module():
    import importlib.util

    path = (pathlib.Path(__file__).resolve().parent.parent
            / "scripts" / "capture_golden.py")
    spec = importlib.util.spec_from_file_location("capture_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_mode_drift_report():
    """scripts/capture_golden.py --check reports drift field by field
    (CI runs the full recompute; this pins the diffing itself)."""
    mod = _load_capture_golden_module()
    pinned = {"case_a": {"makespan": "1.0", "fw": 1},
              "case_b": {"makespan": "2.0", "fw": 2}}
    same = {k: dict(v) for k, v in pinned.items()}
    assert mod.drift_report(pinned, same) == []

    moved = {"case_a": {"makespan": "1.5", "fw": 1},
             "case_c": {"makespan": "3.0", "fw": 0}}
    report = mod.drift_report(pinned, moved)
    assert any("case_a.makespan" in line for line in report)
    assert any(line.startswith("case_b:") for line in report)  # missing
    assert any(line.startswith("case_c:") for line in report)  # extra


def test_check_mode_golden_file_matches_capture_layout():
    """The pinned file and the capture script agree on the case set, so
    --check diffs the same eight scenarios this suite replays."""
    mod = _load_capture_golden_module()
    assert mod.DEFAULT_GOLDEN.resolve() == (
        pathlib.Path(__file__).resolve().parent / "golden"
        / "engine_reseat.json"
    )
    assert set(GOLDEN) == {
        "jacobi_fw0", "jacobi_fw1_recompute", "jacobi_fw2_recompute",
        "jacobi_fw2_none", "nbody_fw0", "nbody_fw1", "nbody_fw2",
        "nbody_adaptive",
    }
    for name, case in GOLDEN.items():
        expected = {"makespan", "iterations", "fw", "final_digest", "stats",
                    "breakdown"}
        if name == "nbody_adaptive":
            expected |= {"window_history", "final_windows"}
        assert set(case) == expected
        for stat in case["stats"]:
            assert set(stat) == set(STAT_FIELDS)
