"""The backend-agnostic speculation-policy layer (PR 8).

Covers the :mod:`repro.policy` package itself (``CascadePolicy``,
``CostWindow``), the engine seat (``WindowChanged`` effects, per-rank
spawning, bound validation), parity (a seated policy pinned to one
window is effect-for-effect identical to a plain fixed-FW run on every
backend), the pipe transport's blocked-receive
accounting that feeds the controller on real processes, and the
``window-policy-bound`` sanitizer seat.
"""

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.core import ZeroOrderHold
from repro.engine import Recv
from repro.engine.core import SpecEngine, topology
from repro.engine.pipes import PipeTransport
from repro.engine.sanitizer import ProtocolSanitizer, ProtocolViolation
from repro.netsim import ConstantLatency, DelayNetwork
from repro.policy import CascadePolicy, CostWindow
from repro.vm import Cluster, uniform_specs

from tests.toy_programs import CoupledIncrement


def make_cluster(p, latency, capacity=1000.0):
    return Cluster(
        uniform_specs(p, capacity=capacity),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(latency)),
    )


def constant_prog(nprocs=2, iterations=12, **kw):
    kw.setdefault("threshold", 0.0)
    kw.setdefault("speculator", ZeroOrderHold())
    return CoupledIncrement(
        nprocs=nprocs, iterations=iterations, coupling=0.0,
        rates=[0.0] * nprocs, ops_per_compute=1000.0, **kw,
    )


# ------------------------------------------------------------ CascadePolicy
def test_cascade_policy_coerce_accepts_strings_and_members():
    assert CascadePolicy.coerce("recompute") is CascadePolicy.RECOMPUTE
    assert CascadePolicy.coerce("none") is CascadePolicy.NONE
    assert CascadePolicy.coerce(CascadePolicy.NONE) is CascadePolicy.NONE


def test_cascade_policy_rejects_unknown_with_historical_message():
    with pytest.raises(ValueError, match="unknown cascade policy 'both'"):
        CascadePolicy.coerce("both")


def test_cascade_policy_str_compatibility():
    """str subclass: existing ``== "none"`` comparisons and JSON/pickle
    call sites keep working unchanged."""
    assert CascadePolicy.RECOMPUTE == "recompute"
    assert str(CascadePolicy.NONE) == "none"
    import pickle

    assert pickle.loads(pickle.dumps(CascadePolicy.NONE)) is CascadePolicy.NONE


# --------------------------------------------------------------- CostWindow
def _feed(win, fw, rows):
    """Drive ``win`` through one iteration per row of *per-iteration*
    (span, wait, lag, work, overhead[, verify]); the FW after each."""
    totals = [0.0] * 6
    decisions = []
    for t, row in enumerate(rows):
        totals = [a + b for a, b in zip(totals, (*row, 0.0)[:6])]
        now, wait, lag, work, overhead, verify = totals
        fw = win.on_iteration(t, fw=fw, now=now, wait=wait, lag=lag,
                              work=work, overhead=overhead, verify=verify)
        decisions.append(fw)
    return decisions


def test_cost_window_spawn_gives_independent_controllers():
    template = CostWindow(epoch=1, max_fw=4)
    a, b = template.spawn(), template.spawn()
    assert a is not template and a is not b
    # Drive a only: a wait at fw=1 proves latency beyond one iteration
    # of work (L >= 1 + 2), which a wider window hides -> step up.
    assert _feed(a, 1, [(3.0, 2.0, 0.0, 1.0, 0.0)]) == [2]
    assert a.state() != b.state()  # a's marks moved; b untouched


def test_cost_window_widens_on_hidden_latency_and_shrinks_on_overhead():
    win = CostWindow(epoch=2, min_fw=0, max_fw=3)
    # Epoch 1 at fw=1: overhead 0.5 per iteration hides a latency of
    # only 0.1, so blocking (1 + 0.1) is cheaper than speculating
    # (1 + 0.5) -> shrink.  Epoch 2 at fw=0: every iteration waits 2
    # for its inputs; a window pays the remembered overhead 0.5 and
    # spreads the wait over the iterations in flight (2 / f) -> widen.
    rows = [(1.5, 0.0, 0.1, 1.0, 0.5)] * 2 + [(3.0, 2.0, 2.0, 1.0, 0.0)] * 2
    assert _feed(win, 1, rows) == [1, 0, 0, 1]


def test_aimd_holds_inside_deadband():
    """The AIMD controller held between two tuned rejection thresholds;
    the cost rule that replaced it holds while the predicted gain is
    inside the epoch's noise, or gone by the epoch's last iteration."""
    win = CostWindow(epoch=2, min_fw=0, max_fw=4)
    # Blocking would save 0.09 of 1.5 per iteration, but the iteration
    # times spread by a standard error of 0.5: hold.
    assert _feed(win, 1, [(1.0, 0.0, 0.01, 1.0, 0.1),
                          (2.0, 0.0, 0.01, 1.0, 0.1)]) == [1, 1]
    # An epoch with no wait and no transit says nothing about latency:
    # its overhead alone does not price a step down to blocking.
    assert _feed(CostWindow(epoch=2), 1, [(1.5, 0.0, 0.0, 1.0, 0.5)] * 2) == [1, 1]
    # A delay that hit three iterations but is gone by the epoch's last
    # one is not chased.
    delayed = (9.0, 4.0, 4.0, 10.0, 0.0)
    assert _feed(CostWindow(epoch=4), 0,
                 [delayed] * 3 + [(5.0, 0.0, 0.0, 10.0, 0.0)]) == [0] * 4


# -------------------------------------------------------------- engine seat
def test_engine_validates_initial_fw_against_policy_bounds():
    prog = constant_prog(iterations=2)
    needed, audience = topology(prog)
    with pytest.raises(ValueError, match="initial fw"):
        SpecEngine(prog, 0, needed[0], audience[0], fw=5,
                   policy=CostWindow(max_fw=3))


def test_des_window_history_seeded_and_recorded():
    res = run(RunConfig(
        constant_prog(iterations=16), fw=1,
        window_policy=CostWindow(epoch=2, min_fw=0, max_fw=3),
        cluster=make_cluster(2, latency=3.0),
    ))
    assert sorted(res.window_history) == [0, 1]
    for history in res.window_history.values():
        assert history[0] == (0, 1)
        assert all(abs(b - a) == 1
                   for (_, a), (_, b) in zip(history, history[1:]))
    # comm >> compute and perfect speculation: somebody widened.
    assert any(fw > 1 for fw in res.final_windows())
    assert res.final_windows() == [
        h[-1][1] for h in res.window_history.values()]


def test_window_events_land_in_the_des_trace():
    res = run(RunConfig(
        constant_prog(iterations=16), fw=1,
        window_policy=CostWindow(epoch=2, min_fw=0, max_fw=3),
        record_trace=True, cluster=make_cluster(2, latency=3.0),
    ))
    window_events = [e for e in res.event_log if e.kind == "window"]
    assert window_events
    for event in window_events:
        assert 0 <= event.peer <= 3  # peer column carries the new FW


# ------------------------------------------------------------------- parity
def pinned():
    """A seated policy whose bounds leave it one window: FW=1."""
    return CostWindow(min_fw=1, max_fw=1)


def _des_fingerprint(window_policy):
    prog = CoupledIncrement(nprocs=3, iterations=6, coupling=0.2,
                            threshold=0.0, ops_per_compute=1000.0)
    res = run(RunConfig(prog, fw=1, window_policy=window_policy,
                        record_trace=True, cluster=make_cluster(3, latency=0.4)))
    return (
        repr(res.wall_seconds),
        {r: np.asarray(b).tobytes() for r, b in res.results.items()},
        [(s.spec_made, s.spec_accepted, s.spec_rejected, s.checks,
          s.recomputes) for s in res.stats],
        list(res.event_log),
    )


def test_static_window_parity_on_des():
    """A policy that never moves the window is pure plumbing:
    bit-identical effects, trace and numerics to the plain fixed-FW run."""
    assert _des_fingerprint(None) == _des_fingerprint(pinned())


def test_static_window_parity_on_loopback():
    prog = CoupledIncrement(nprocs=3, iterations=7, coupling=0.3,
                            threshold=0.0)
    plain = run(RunConfig(prog, backend="loopback", fw=1, record_trace=True))
    seated = run(RunConfig(prog, backend="loopback", fw=1, record_trace=True,
                           window_policy=pinned()))
    for rank in range(3):
        np.testing.assert_array_equal(plain.results[rank], seated.results[rank])
    assert [vars(s) for s in plain.stats] == [vars(s) for s in seated.stats]
    assert list(plain.event_log) == list(seated.event_log)
    assert seated.window_history == {r: [(0, 1)] for r in range(3)}


#: Effect kinds whose per-rank sequence no arrival race can move: a
#: rank sends block t once, after verifying it (fw=1), and one peer's
#: messages are FIFO.  How a rank's sends interleave with its receives,
#: and whether a receive was late enough to speculate, verify and
#: correct, is the wall clock's business.
_RACE_FREE_KINDS = ("send", "recv")


def _mp_fingerprint(window_policy, latency=0.01):
    prog = CoupledIncrement(nprocs=2, iterations=5, coupling=0.2,
                            threshold=0.0)
    result = run(RunConfig(prog, backend="mp", fw=1, latency=latency, seed=3,
                           record_trace=True, window_policy=window_policy,
                           timeout=120))
    for s in result.stats:
        assert s.checks == s.spec_made == s.spec_accepted + s.spec_rejected
    events = {}
    for e in result.event_log:
        if e.kind in _RACE_FREE_KINDS:
            events.setdefault((e.rank, e.kind), []).append(
                (e.peer, e.family, e.iteration))
    return (
        {r: np.asarray(b).tobytes() for r, b in result.results.items()},
        result.window_history,
        events,
    )


def test_static_window_parity_on_pipes():
    """What `docs/robustness.md` promises of real processes: the same
    physics (theta=0, fw=1: timing cannot leak into payloads), the same
    window trajectory, and per rank the same sends and the same
    receives in the same order.  Which receives were late is not
    promised — two runs race message arrival against compute, so
    ``spec_made`` and the speculate/verify/correct events may differ
    between them; the second latency makes them differ on purpose."""
    plain = _mp_fingerprint(None)
    assert plain == _mp_fingerprint(pinned())
    assert plain == _mp_fingerprint(pinned(), latency=0.0)


# -------------------------------------- pipes: blocked-receive accounting
def test_pipe_recv_reports_blocked_seconds_in_waited():
    """The wall-clock wait signal.  A receive that parks in select must
    surface the blocked span in Arrival.waited — that is what the
    engine accumulates into the window policy's ``wait`` on the mp
    backend."""
    ours, theirs = mp.Pipe(duplex=True)
    transport = PipeTransport(rank=0, conns={1: ours})
    delay = 0.3
    theirs.send((0, time.monotonic() + delay, 1, "late payload"))
    arrival = transport.recv(Recv(phase="comm", iteration=1))
    assert arrival.payload == "late payload"
    assert arrival.waited >= delay * 0.9
    assert arrival.waited == pytest.approx(
        transport.trace.total("comm"), abs=0.05
    )
    assert transport.trace.records[0][3] == 1  # tagged with the Recv's iteration


def test_pipe_immediate_recv_reports_near_zero_wait():
    ours, theirs = mp.Pipe(duplex=True)
    transport = PipeTransport(rank=0, conns={1: ours})
    theirs.send((0, time.monotonic() - 1.0, 1, "ready"))
    time.sleep(0.02)
    arrival = transport.recv(Recv(phase="comm", iteration=1))
    assert arrival.waited < 0.1


# --------------------------------------------------- mp adaptive end-to-end
def test_mp_adaptive_widens_and_stays_correct():
    """p=2 real processes, injected latency >> compute, perfect
    speculation: at least one rank widens past its initial window, per
    rank trajectories come back in the reports, and the numerics still
    equal the blocking reference exactly (theta=0 + exact ZOH)."""
    prog = constant_prog(nprocs=2, iterations=12)
    result = run(RunConfig(
        prog, backend="mp", fw=1, latency=0.05, seed=7,
        window_policy=CostWindow(epoch=2, min_fw=0, max_fw=3), timeout=120,
    ))

    history = result.window_history
    assert set(history) == {0, 1}
    for rank, trajectory in history.items():
        assert trajectory[0] == (0, 1)
        fws = [fw for _, fw in trajectory]
        assert all(0 <= fw <= 3 for fw in fws)
    assert any(fw > 1 for fw in result.final_windows())

    ref = prog.reference_run()
    for rank in range(2):
        np.testing.assert_allclose(result.results[rank], ref[rank],
                                   atol=1e-12)


def test_mp_static_window_reports_trivial_history():
    prog = constant_prog(nprocs=2, iterations=4)
    result = run(RunConfig(prog, backend="mp", fw=1, latency=0.0, seed=1, timeout=120))
    assert result.window_history == {0: [(0, 1)], 1: [(0, 1)]}
    assert result.final_windows() == [1, 1]


# ------------------------------------------------------- sanitizer seat
def test_sanitizer_rejects_window_outside_bounds():
    san = ProtocolSanitizer()
    san.on_window_changed(0, 2, 1, 2, 0, 2)  # legal move to the bound
    with pytest.raises(ProtocolViolation) as exc:
        san.on_window_changed(0, 4, 2, 3, 0, 2)
    assert exc.value.invariant == "window-policy-bound"


def test_sanitizer_rejects_stale_window_gate():
    """After the policy announces fw=2, a compute gated on the old fw=1
    means some consumer cached the constructor's window."""
    san = ProtocolSanitizer()
    san.on_window_changed(0, 1, 1, 2, 0, 4)
    with pytest.raises(ProtocolViolation) as exc:
        san.on_compute_begin(0, 2, verified_upto=1, fw=1)
    assert exc.value.invariant == "window-policy-bound"
    # The current window itself is fine.
    ProtocolSanitizer().on_compute_begin(0, 2, verified_upto=1, fw=2)


# ----------------------------------------------------------- specmc seat
def test_specmc_explores_cost_window_cleanly():
    from repro.analysis.modelcheck import McConfig, explore

    result = explore(McConfig(p=2, fw=1, bw=1, iters=3, window="cost"))
    assert result.violation is None
    assert result.explored > 0


def test_specmc_cost_trajectory_reaches_both_directions():
    """Delivery is instant in the model, so an iteration that neither
    waited nor saw a transit is no evidence and the window holds; a
    blocked delivery waits one compute step.  Under ``constant`` that
    wait is latency a wider window hides, so the canonical schedule
    widens; under ``drift`` every speculation is rejected, and the
    check and correction each rejection costs exceed the compute a
    window overlaps with the wait, so it shrinks.
    The engines' deterministic op clock makes both reachable."""
    from repro.analysis.modelcheck import McConfig
    from repro.analysis.modelcheck.model import Execution

    def trajectories(scenario):
        ex = Execution(McConfig(p=2, fw=1, iters=3, window="cost",
                                scenario=scenario))
        while not ex.is_done and ex.violation is None:
            actions = ex.enabled_actions()
            if not actions:
                break
            ex.apply(min(actions, key=lambda a: (a.kind, a.rank, a.src,
                                                 a.idx)))
        assert ex.violation is None
        return [[fw for _, fw in history]
                for history in ex.window_history.values()]

    assert [1, 0] in trajectories("drift")
    assert [1, 2] in trajectories("constant")


def test_specmc_runaway_window_mutation_is_caught():
    from repro.analysis.modelcheck import McConfig, explore

    result = explore(McConfig(p=2, fw=1, bw=1, iters=3),
                     mutation="runaway-window")
    assert result.violation is not None
    assert result.violation.invariant == "window-policy-bound"
