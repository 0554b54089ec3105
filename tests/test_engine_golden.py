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

The cases and their summary are the script's own (``CASES``,
``summarize``): each test runs one case and compares it with its pin.

The N-body ``final_digest`` pins hold only where numpy dispatches its
AVX-512 ``pow``.  The kernels fix the association of every sum and
product (DESIGN.md 5.8), but the last bit of ``np.power`` depends on
numpy's dispatch path: with
``NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"`` the
four ``nbody_*`` digests drift in the last ulp.  The printed artifacts
(``python scripts/parity.py``) hold on both paths.
"""

import importlib.util
import json
import pathlib

import pytest

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parent / "golden" / "engine_reseat.json"
)
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _load_capture_golden_module():
    path = (pathlib.Path(__file__).resolve().parent.parent
            / "scripts" / "capture_golden.py")
    spec = importlib.util.spec_from_file_location("capture_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CAPTURE = _load_capture_golden_module()


def _cases(case):
    """``(name, *args)`` of every case ``case`` runs."""
    return [(name, *args) for name, (fn, *args) in CAPTURE.CASES.items()
            if fn is case]


@pytest.mark.parametrize("case,fw,cascade", _cases(CAPTURE.jacobi_case))
def test_jacobi_matches_pre_refactor_driver(case, fw, cascade):
    assert CAPTURE.jacobi_case(fw, cascade) == GOLDEN[case]


@pytest.mark.parametrize("case,fw", _cases(CAPTURE.nbody_case))
def test_nbody_matches_pre_refactor_driver(case, fw):
    assert CAPTURE.nbody_case(fw) == GOLDEN[case]


def test_nbody_adaptive_matches_pinned_trajectory():
    """The p=8 jittered DES adaptive run is bit-stable: virtual time is
    deterministic, so every rank's WindowChanged trajectory (and the
    stats it steers) must reproduce the pinned golden exactly.  At
    p=8 the 120-particle blocks compute for less than the latency, so
    the ranks widen."""
    doc = CAPTURE.nbody_adaptive_case()
    assert doc == GOLDEN["nbody_adaptive"]
    # The trajectory is only interesting if adaptation actually fired.
    assert any(len(history) > 1 for history in doc["window_history"])


# ---------------------------------------------- the --check drift guard
def test_check_mode_drift_report():
    """scripts/capture_golden.py --check reports drift field by field."""
    pinned = {"case_a": {"makespan": "1.0", "fw": 1},
              "case_b": {"makespan": "2.0", "fw": 2}}
    same = {k: dict(v) for k, v in pinned.items()}
    assert CAPTURE.drift_report(pinned, same) == []

    moved = {"case_a": {"makespan": "1.5", "fw": 1},
             "case_c": {"makespan": "3.0", "fw": 0}}
    report = CAPTURE.drift_report(pinned, moved)
    assert any("case_a.makespan" in line for line in report)
    assert any(line.startswith("case_b:") for line in report)  # missing
    assert any(line.startswith("case_c:") for line in report)  # extra


def test_check_mode_golden_file_matches_capture_layout():
    """The pinned file and the capture script agree on the case set,
    and every case is run by a test above."""
    assert CAPTURE.DEFAULT_GOLDEN.resolve() == GOLDEN_PATH
    assert set(GOLDEN) == set(CAPTURE.CASES)
    tested = {row[0] for case in (CAPTURE.jacobi_case, CAPTURE.nbody_case)
              for row in _cases(case)}
    assert set(CAPTURE.CASES) == tested | {"nbody_adaptive"}
