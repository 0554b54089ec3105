"""Unit tests for the specfault layer: plans, injection, recovery.

The FaultPlan is data; the injector's decisions are pure hashes of
(seed, fault index, src, dst, seq).  These tests pin the plan's
serialization contract, the recovery machinery (retransmit buffers,
duplicate suppression, bounded retries) and the DegradedWindow policy
wrapper in isolation; `test_fault_determinism.py` covers the
end-to-end reproducibility guarantees.
"""

import time

import numpy as np
import pytest

from repro import RunConfig, run
from repro.analysis.sanitizer import ProtocolViolation
from repro.engine.core import RetransmitExhausted, build_engine, topology
from repro.engine.events import Recv
from repro.faults import (
    EdgeFault,
    FaultPlan,
    RankFault,
    TriggerWindow,
    wrap_engine,
)
from repro.policy.window import DegradedWindow

from tests.toy_programs import CoupledIncrement


def _program(p=4, iterations=12):
    return CoupledIncrement(p, iterations, coupling=0.05)


def _chaos(plan, prog=None, **cfg):
    prog = prog if prog is not None else _program()
    cfg.setdefault("backend", "loopback")
    cfg.setdefault("fw", 1)
    cfg.setdefault("cascade", "recompute")
    return run(RunConfig(prog, fault_plan=plan, **cfg))


# ------------------------------------------------------------------ plans
def test_plan_round_trips_through_dict():
    plan = FaultPlan(
        seed=11,
        edges=(
            EdgeFault(kind="drop", rate=0.1, src=0, dst=2),
            EdgeFault(kind="delay", rate=0.5, delay=3.0,
                      window=TriggerWindow(start=2, stop=8)),
        ),
        ranks=(RankFault(rank=1, slowdown=2.5, crash_at=9),),
        max_retries=6,
        sender_timeout=4.0,
    )
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_plan_round_trips_through_file(tmp_path):
    plan = FaultPlan(seed=3, edges=(EdgeFault(kind="reorder", rate=0.2),))
    path = tmp_path / "plan.json"
    plan.save(str(path))
    assert FaultPlan.load(str(path)) == plan


def test_edge_fault_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown edge-fault kind"):
        EdgeFault(kind="gremlin", rate=0.1)


def test_edge_fault_rejects_bad_rate():
    with pytest.raises(ValueError, match=r"rate must be in \[0, 1\]"):
        EdgeFault(kind="drop", rate=1.5)


def test_rank_fault_rejects_speedup():
    with pytest.raises(ValueError, match="slowdown must be >= 1"):
        RankFault(rank=0, slowdown=0.5)


def test_plan_rejects_zero_retries():
    with pytest.raises(ValueError, match="max_retries"):
        FaultPlan(max_retries=0)


def test_trigger_window_half_open():
    window = TriggerWindow(start=2, stop=5)
    assert not window.contains(1)
    assert window.contains(2)
    assert window.contains(4)
    assert not window.contains(5)
    assert TriggerWindow(start=3).contains(10**6)  # stop=None: open-ended


def test_edge_fault_wildcards_and_window():
    fault = EdgeFault(kind="drop", rate=1.0, src=1,
                      window=TriggerWindow(stop=4))
    assert fault.matches(1, 0, 3)
    assert not fault.matches(2, 0, 3)   # src pinned
    assert not fault.matches(1, 0, 4)   # window closed


# --------------------------------------------------------------- recovery
def test_drops_heal_and_physics_survive():
    prog = _program()
    clean = run(RunConfig(prog, backend="loopback", fw=1, cascade="recompute"))
    plan = FaultPlan(seed=7, edges=(EdgeFault(kind="drop", rate=0.2),))
    report = _chaos(plan, prog)
    summary = report.fault_summary
    assert summary["injected"].get("drop", 0) >= 1
    assert summary["outstanding_losses"] == 0
    healed = (summary["retransmits_serviced"] + summary["auto_retransmits"])
    assert healed >= summary["injected"]["drop"]
    for rank in range(prog.nprocs):
        np.testing.assert_array_equal(report.results[rank], clean.results[rank])


def test_duplicates_are_suppressed():
    plan = FaultPlan(seed=5, edges=(EdgeFault(kind="duplicate", rate=0.5),))
    prog = _program()
    clean = run(RunConfig(prog, backend="loopback", fw=1, cascade="recompute"))
    report = _chaos(plan, prog)
    assert report.fault_summary["injected"].get("duplicate", 0) >= 1
    assert sum(s.dups_suppressed for s in report.stats) >= 1
    for rank in range(prog.nprocs):
        np.testing.assert_array_equal(report.results[rank], clean.results[rank])


def _unserviced_loss():
    # retransmit=False models a transport with no recovery: the engine
    # notices the gap when iteration 2's message overtakes the dropped
    # iteration-1 message, and its bounded retry loop must give up
    # loudly, not hang.  (Inter-rank messages carry iterations >= 1;
    # t=0 blocks are seeded locally.)
    return FaultPlan(
        seed=0,
        retransmit=False,
        edges=(EdgeFault(kind="drop", rate=1.0, src=0, dst=1,
                         window=TriggerWindow(stop=2)),),
    )


def test_unserviced_loss_exhausts_retries():
    # The engine's own bound; sanitize=False because the sanitizer
    # (armed for every run under REPRO_SANITIZE=1) fires first, on the
    # over-budget Retransmit itself — see the twin below.
    with pytest.raises(RetransmitExhausted, match="retransmit request"):
        _chaos(_unserviced_loss(), _program(p=2, iterations=4),
               sanitize=False)


def test_unserviced_loss_violates_retransmit_bounded_when_sanitized():
    with pytest.raises(ProtocolViolation) as caught:
        _chaos(_unserviced_loss(), _program(p=2, iterations=4),
               sanitize=True)
    assert caught.value.invariant == "retransmit-bounded"


def test_silent_unrecoverable_loss_fails_loudly():
    # Drop *every* message on the edge with retransmission off: the
    # sender stalls too, so no later arrival ever opens a sequence gap
    # and the engine's retry budget can never engage.  The fault seam
    # must bound its fruitless polls and raise, not livelock.
    plan = FaultPlan(
        seed=0,
        retransmit=False,
        edges=(EdgeFault(kind="drop", rate=1.0, src=0, dst=1),),
    )
    with pytest.raises(RetransmitExhausted, match="cannot be recovered"):
        _chaos(plan, _program(p=2, iterations=4))


def test_crash_terminates_the_run():
    from repro.faults import InjectedCrash

    plan = FaultPlan(seed=0, ranks=(RankFault(rank=1, crash_at=3),))
    with pytest.raises(InjectedCrash, match="planned crash"):
        _chaos(plan)


def test_straggler_does_not_change_physics():
    prog = _program()
    clean = run(RunConfig(prog, backend="loopback", fw=1, cascade="recompute"))
    plan = FaultPlan(seed=2, ranks=(RankFault(rank=1, slowdown=3.0),))
    report = _chaos(plan, prog)
    for rank in range(prog.nprocs):
        np.testing.assert_array_equal(report.results[rank], clean.results[rank])


class SlowCompute(CoupledIncrement):
    """Each compute takes 5 ms of real time, so a wall-clock stretch
    shows above timer noise."""

    def compute(self, rank, inputs, t):
        time.sleep(0.005)
        return super().compute(rank, inputs, t)


def test_mp_straggler_sleeps_and_keeps_physics():
    # On a medium that times phases, the seam's Charge.factor must
    # turn into real sleep: rank 1's compute phase stretches ~3x next
    # to the unfaulted rank 0 of the same run.
    prog = SlowCompute(2, 8, coupling=0.05)
    plan = FaultPlan(ranks=(RankFault(rank=1, slowdown=3.0),))
    report = _chaos(plan, prog, backend="mp", timeout=120.0)
    for rank, expected in prog.reference_run().items():
        np.testing.assert_array_equal(report.results[rank], expected)
    compute = [trace.total("compute") for trace in report.traces]
    assert compute[1] > 2.0 * compute[0]


def test_mp_recovery_wait_is_booked_as_comm():
    # Both ranks lose iteration 2's message, so neither sends again
    # and no sequence gap opens: the losses wait for the modelled
    # sender's timer, which the stalled ranks run down in fruitless
    # polls of one wall second each.  Those go through
    # PipeTransport.recv, which books them under Recv.phase; a wait
    # slept anywhere else lands on whichever phase charges next (check).
    plan = FaultPlan(
        sender_timeout=5.0, retransmit_delay=0.0,
        edges=(EdgeFault("drop", 1.0, window=TriggerWindow(2, 3)),),
    )
    report = _chaos(plan, _program(p=2, iterations=6), backend="mp",
                    timeout=120.0)
    assert report.fault_summary["injected"] == {"drop": 2}
    assert report.fault_summary["outstanding_losses"] == 0
    assert report.timings["comm"] >= 0.9
    assert report.timings["check"] < 0.5 * report.timings["comm"]


def test_idle_seam_leaves_a_blocking_receive_unbounded():
    # With nothing held, the wrapper must not put a timeout on the
    # engine's Recv: on pipes that is what lets a parked worker block
    # in select instead of waking to run the injector's timers.
    plan = FaultPlan(edges=(EdgeFault(kind="drop", rate=0.0),))
    prog = _program(p=2, iterations=4)
    engine = wrap_engine(
        build_engine(prog, 0, topology(prog), fw=0, fault_plan=plan), plan
    )
    effects = engine.run()
    effect = next(effects)
    while type(effect) is not Recv:
        effect = effects.send(None)
    assert not engine.injector.outstanding()
    assert effect.timeout is None


def test_same_plan_same_summary():
    plan = FaultPlan(
        seed=9,
        edges=(EdgeFault(kind="drop", rate=0.15),
               EdgeFault(kind="reorder", rate=0.1)),
    )
    first = _chaos(plan).fault_summary
    second = _chaos(plan).fault_summary
    assert first == second


# --------------------------------------------------------- DegradedWindow
class _FixedPolicy:
    """Inner stub: always asks for `want`, bounded to [min_fw, max_fw]."""

    def __init__(self, want=4, min_fw=1, max_fw=4):
        self.want = want
        self._min, self._max = min_fw, max_fw
        self.calls = 0

    @property
    def min_fw(self):
        return self._min

    @property
    def max_fw(self):
        return self._max

    def spawn(self):
        return _FixedPolicy(self.want, self._min, self._max)

    def on_iteration(self, t, *, fw, **signals):
        self.calls += 1
        return self.want

    def state(self):
        return (float(self.want),)


def _decide(policy, t, fw):
    return policy.on_iteration(
        t, fw=fw, now=float(t), wait=0.0, lag=0.0, work=float(t), overhead=0.0
    )


def test_degraded_window_collapses_under_loss():
    policy = DegradedWindow(inner=_FixedPolicy(want=4), recover_after=2)
    policy.observe_losses(1)  # fresh retransmit seen
    assert _decide(policy, 0, fw=4) == 2
    assert policy.degraded
    policy.observe_losses(2)  # loss persists: keep halving toward 0
    assert _decide(policy, 1, fw=2) == 1
    assert policy.inner.calls == 0  # inner never consulted while degraded


def test_degraded_window_holds_then_recovers():
    policy = DegradedWindow(inner=_FixedPolicy(want=3), recover_after=2)
    policy.observe_losses(1)
    assert _decide(policy, 0, fw=4) == 2
    # Clean iteration 1: still held collapsed (streak < recover_after).
    policy.observe_losses(1)
    assert _decide(policy, 1, fw=2) == 2
    assert policy.degraded
    # Clean iteration 2: streak reached — inner policy steers again.
    policy.observe_losses(1)
    assert _decide(policy, 2, fw=2) == 3
    assert not policy.degraded


def test_degraded_window_clamps_to_inner_bounds():
    policy = DegradedWindow(inner=_FixedPolicy(want=99, min_fw=1, max_fw=4),
                            recover_after=1)
    policy.observe_losses(1)
    assert _decide(policy, 0, fw=1) == 0  # may park below inner.min_fw
    assert policy.min_fw == 0
    policy.observe_losses(1)
    assert _decide(policy, 1, fw=0) == 4  # recovery clamps into [1, 4]


def test_degraded_window_spawn_is_private():
    template = DegradedWindow(inner=_FixedPolicy(), recover_after=3)
    clone = template.spawn()
    assert clone is not template
    assert clone.inner is not template.inner
    clone.observe_losses(5)
    _decide(clone, 0, fw=4)
    assert clone.degraded and not template.degraded


def test_degraded_run_collapses_window_history():
    # End to end: persistent loss with the wrapper seated must show a
    # shrink in the recorded (iteration, fw) trajectory.
    plan = FaultPlan(seed=1, edges=(EdgeFault(kind="drop", rate=0.3),))
    policy = DegradedWindow(inner=_FixedPolicy(want=2, min_fw=0, max_fw=2),
                            recover_after=3)
    report = _chaos(plan, _program(p=4, iterations=16),
                    fw=2, window_policy=policy)
    assert report.fault_summary["total_injected"] >= 1
    flat = [fw for hist in report.window_history.values() for _, fw in hist]
    assert min(flat) < 2  # at least one rank collapsed its window
