"""Loopback-transport tests: protocol logic with no clock at all.

The round-robin scheduler itself produces speculative executions
(a rank scheduled ahead of its peers speculates their late inputs),
so these tests exercise the full speculate/verify/correct path of
the shared :class:`~repro.engine.core.SpecEngine` in microseconds,
and check the loopback backend agrees with the serial reference.
"""

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.engine import LoopbackDeadlock, LoopbackRunner
from repro.engine.events import Recv

from tests.toy_programs import CoupledIncrement, RandomDrift


def assert_matches_reference(prog, finals):
    ref = prog.reference_run()
    for rank in range(prog.nprocs):
        np.testing.assert_allclose(finals[rank], ref[rank], atol=1e-12)


# ------------------------------------------------------------------ numerics
@pytest.mark.parametrize("fw", [0, 1])
def test_loopback_exact_for_fw0_and_strict_fw1(fw):
    """fw=0 never speculates; fw=1 with theta=0 verifies every
    speculation exactly — both must equal the serial recurrence."""
    prog = CoupledIncrement(nprocs=3, iterations=7, coupling=0.3, threshold=0.0)
    report = run(RunConfig(prog, backend="loopback", fw=fw))
    assert_matches_reference(prog, report.results)
    if fw == 0:
        assert all(s.spec_made == 0 for s in report.stats)


def test_loopback_receive_driven_matches_spec_engine():
    """The receive-driven baseline and the speculative engine agree
    on an incremental program (nbody implements begin/absorb/finish)."""
    from repro.apps.nbody_app import NBodyProgram
    from repro.nbody import uniform_cube

    system = uniform_cube(24, seed=42, softening=0.1)
    prog = NBodyProgram(system, [1.0, 1.0], iterations=3, dt=0.015,
                        threshold=0.01)
    spec = run(RunConfig(prog, backend="loopback", fw=0))
    base = run(RunConfig(prog, backend="loopback", receive_driven=True))
    for rank in range(2):
        np.testing.assert_allclose(spec.results[rank], base.results[rank],
                                   atol=1e-12)
    # The baseline has no window: it reports fw 0 on every backend.
    assert base.fw == 0 and base.window_history == {0: [(0, 0)], 1: [(0, 0)]}


@pytest.mark.parametrize("knob", [
    {"fw": 2}, {"cascade": "none"}, {"window_policy": object()},
    {"fault_plan": object()}, {"bw": 1},
])
def test_receive_driven_refuses_knobs_it_would_ignore(knob):
    """The Fig. 7 baseline has no forward or backward window: knobs set
    beside ``receive_driven=True`` used to be dropped silently."""
    prog = CoupledIncrement(nprocs=2, iterations=3)
    with pytest.raises(ValueError, match="receive_driven"):
        RunConfig(prog, backend="loopback", receive_driven=True, **knob)


# ------------------------------------------------------------- speculation
def test_round_robin_schedule_produces_speculation():
    """A constant state is predicted perfectly by a zero-order hold:
    speculations happen and every one is accepted."""
    from repro.core import ZeroOrderHold

    prog = CoupledIncrement(
        nprocs=3, iterations=8, coupling=0.0, rates=[0.0, 0.0, 0.0],
        threshold=0.0, speculator=ZeroOrderHold(),
    )
    report = run(RunConfig(prog, backend="loopback", fw=2))
    stats = report.stats
    assert_matches_reference(prog, report.results)
    made = sum(s.spec_made for s in stats)
    assert made > 0
    assert sum(s.spec_rejected for s in stats) == 0
    assert sum(s.spec_accepted for s in stats) == made


def test_rejection_and_correction_on_unpredictable_program():
    """RandomDrift defeats extrapolation; rejected speculations must
    be corrected so the final state still matches the reference."""
    prog = RandomDrift(nprocs=2, iterations=6, coupling=0.1, threshold=0.0)
    report = run(RunConfig(prog, backend="loopback", fw=1))
    stats = report.stats
    assert_matches_reference(prog, report.results)
    assert sum(s.spec_rejected for s in stats) > 0
    assert sum(s.recomputes for s in stats) > 0


# ----------------------------------------------------------- observability
def test_phase_ops_tallied_per_rank():
    prog = CoupledIncrement(nprocs=2, iterations=4)
    report = run(RunConfig(prog, backend="loopback", fw=1))
    for rank in range(2):
        assert report.traces[rank].rank == rank
        assert report.traces[rank].total("compute") > 0.0


def test_event_log_records_protocol_kinds():
    prog = CoupledIncrement(nprocs=3, iterations=6, coupling=0.0)
    log = run(RunConfig(prog, backend="loopback", fw=2,
                        record_trace=True)).event_log
    kinds = {e.kind for e in log}
    assert {"send", "recv", "compute", "speculate", "verify"} <= kinds
    # The step-counter logical clock is monotone along each rank's
    # program order (seq), so the trace replays deterministically.
    for rank in range(3):
        per_rank = sorted((e for e in log if e.rank == rank),
                          key=lambda e: e.seq)
        times = [e.time for e in per_rank]
        assert times == sorted(times)


# --------------------------------------------------------------- deadlock
class _StuckEngine:
    """Fake engine blocking forever on a message nobody will send."""

    def run(self):
        yield Recv(phase="comm", iteration=99, match=("vars", 99))
        raise AssertionError("unreachable")  # pragma: no cover


def test_deadlock_detected_not_hung():
    with pytest.raises(LoopbackDeadlock, match="blocked receives"):
        LoopbackRunner({0: _StuckEngine()}).run()


def test_runner_rejects_empty_engine_map():
    with pytest.raises(ValueError):
        LoopbackRunner({})
