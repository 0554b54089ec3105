"""The backend-agnostic speculation-policy layer (PR 8).

Covers the :mod:`repro.policy` package itself (``CascadePolicy``,
``StaticWindow``, ``AimdWindow``), the engine seat (``WindowChanged``
effects, per-rank spawning, bound validation), parity (a seated
``StaticWindow(fw)`` run is effect-for-effect identical to a plain
fixed-FW run on every backend), the pipe transport's blocked-receive
accounting that feeds the controller on real processes, and the
``window-policy-bound`` sanitizer seat.
"""

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.analysis import ProtocolSanitizer, ProtocolViolation
from repro.core import run_program
from repro.core import ZeroOrderHold
from repro.engine import Recv, run_loopback
from repro.engine.core import SpecEngine, topology
from repro.engine.pipes import PipeTransport
from repro.netsim import ConstantLatency, DelayNetwork
from repro.parallel import MPRunner
from repro.policy import AimdWindow, CascadePolicy, StaticWindow, WindowPolicy
from repro.trace import EventLog
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


# ------------------------------------------------------------- StaticWindow
def test_static_window_is_frozen_and_inert():
    win = StaticWindow(2)
    assert isinstance(win, WindowPolicy)
    assert (win.min_fw, win.max_fw) == (2, 2)
    assert win.spawn() is win  # stateless: one instance serves all ranks
    assert win.on_iteration(0, fw=2, epoch_wait=9.9, checks=5, rejects=5,
                            now=1.0) == 2
    assert win.state() == ()
    with pytest.raises(ValueError):
        StaticWindow(-1)


# --------------------------------------------------------------- AimdWindow
def test_aimd_validation_mirrors_adaptive_policy():
    with pytest.raises(ValueError):
        AimdWindow(epoch=0)
    with pytest.raises(ValueError):
        AimdWindow(min_fw=3, max_fw=2)
    with pytest.raises(ValueError):
        AimdWindow(reject_low=0.5, reject_high=0.2)
    with pytest.raises(ValueError):
        AimdWindow(wait_fraction=-0.1)


def test_aimd_spawn_gives_independent_controllers():
    template = AimdWindow(epoch=1, max_fw=4)
    a, b = template.spawn(), template.spawn()
    assert a is not template and a is not b
    # Drive a only: heavy waiting, perfect speculation -> widen.
    fw = a.on_iteration(0, fw=1, epoch_wait=1.0, checks=4, rejects=0, now=1.0)
    assert fw == 2
    assert a.state() != b.state()  # a's marks moved; b untouched


def test_aimd_widens_on_wait_and_shrinks_on_rejection():
    win = AimdWindow(epoch=2, min_fw=0, max_fw=3)
    # Epoch boundary at t=1: 100% rejection -> shrink.
    assert win.on_iteration(0, fw=1, epoch_wait=0.0, checks=1, rejects=1,
                            now=1.0) == 1  # not an epoch boundary
    assert win.on_iteration(1, fw=1, epoch_wait=0.0, checks=2, rejects=2,
                            now=2.0) == 0
    # Next epoch: long waits, clean checks -> widen.
    assert win.on_iteration(3, fw=0, epoch_wait=1.0, checks=4, rejects=2,
                            now=4.0) == 1
    assert len(win.state()) == 4


def test_aimd_holds_inside_deadband():
    """No waiting and moderate rejection: neither gate trips."""
    win = AimdWindow(epoch=1, min_fw=0, max_fw=4)
    assert win.on_iteration(0, fw=2, epoch_wait=0.0, checks=5, rejects=1,
                            now=1.0) == 2


# -------------------------------------------------------------- engine seat
def test_engine_validates_initial_fw_against_policy_bounds():
    prog = constant_prog(iterations=2)
    needed, audience = topology(prog)
    with pytest.raises(ValueError, match="initial fw"):
        SpecEngine(prog, 0, needed[0], audience[0], fw=5,
                   policy=AimdWindow(max_fw=3))


def test_run_program_rejects_out_of_bounds_initial_fw():
    with pytest.raises(ValueError, match="initial fw"):
        run_program(constant_prog(), make_cluster(2, 0.1), fw=5,
                    window_policy=AimdWindow(max_fw=3))


def test_des_window_history_seeded_and_recorded():
    res = run_program(
        constant_prog(iterations=16), make_cluster(2, latency=3.0), fw=1,
        window_policy=AimdWindow(epoch=2, min_fw=0, max_fw=3),
    )
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
    log = EventLog()
    cluster = make_cluster(2, latency=3.0)
    cluster.event_log = log
    run_program(
        constant_prog(iterations=16), cluster, fw=1,
        window_policy=AimdWindow(epoch=2, min_fw=0, max_fw=3),
    )
    window_events = [e for e in log if e.kind == "window"]
    assert window_events
    for event in window_events:
        assert 0 <= event.peer <= 3  # peer column carries the new FW


# ------------------------------------------------------------------- parity
def _des_fingerprint(window_policy):
    log = EventLog()
    cluster = make_cluster(3, latency=0.4)
    cluster.event_log = log
    prog = CoupledIncrement(nprocs=3, iterations=6, coupling=0.2,
                            threshold=0.0, ops_per_compute=1000.0)
    res = run_program(prog, cluster, fw=1, window_policy=window_policy)
    return (
        repr(res.wall_seconds),
        {r: np.asarray(b).tobytes() for r, b in res.results.items()},
        [(s.spec_made, s.spec_accepted, s.spec_rejected, s.checks,
          s.recomputes) for s in res.stats],
        list(log),
    )


def test_static_window_parity_on_des():
    """StaticWindow(fw) is pure plumbing: bit-identical effects, trace
    and numerics to the plain fixed-FW run."""
    assert _des_fingerprint(None) == _des_fingerprint(StaticWindow(1))


def test_static_window_parity_on_loopback():
    prog = CoupledIncrement(nprocs=3, iterations=7, coupling=0.3,
                            threshold=0.0)
    plain_log, seated_log = EventLog(), EventLog()
    plain = run_loopback(prog, fw=1, event_log=plain_log)
    seated = run_loopback(prog, fw=1, event_log=seated_log,
                          window_policy=StaticWindow(1))
    for rank in range(3):
        np.testing.assert_array_equal(plain.results[rank], seated.results[rank])
    assert [vars(s) for s in plain.stats] == [vars(s) for s in seated.stats]
    assert list(plain_log) == list(seated_log)
    assert seated.event_log is seated_log
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
    result = MPRunner(
        prog, fw=1, latency=latency, seed=3, record_events=True,
        window_policy=window_policy,
    ).run(timeout=120)
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
    assert plain == _mp_fingerprint(StaticWindow(1))
    assert plain == _mp_fingerprint(StaticWindow(1), latency=0.0)


# -------------------------------------- pipes: blocked-receive accounting
def test_pipe_recv_reports_blocked_seconds_in_waited():
    """Satellite 1: the wall-clock epoch-wait signal.  A receive that
    parks in select must surface the blocked span in Arrival.waited —
    that is what the engine accumulates into ``epoch_wait`` and what
    the AIMD controller's widen gate reads on the mp backend."""
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
    result = MPRunner(
        prog, fw=1, latency=0.05, seed=7,
        window_policy=AimdWindow(epoch=2, min_fw=0, max_fw=3),
    ).run(timeout=120)

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
    result = MPRunner(prog, fw=1, latency=0.0, seed=1).run(timeout=120)
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
def test_specmc_explores_aimd_window_cleanly():
    from repro.analysis.modelcheck import McConfig, explore

    result = explore(McConfig(p=2, fw=1, bw=1, iters=3, window="aimd"))
    assert result.violation is None
    assert result.explored > 0


def test_specmc_aimd_trajectory_reaches_both_directions():
    """Under drift (every speculation rejected) the canonical schedule
    shrinks the window; under constant (waits dominate) it widens —
    the model's deterministic clock makes both decisions reachable."""
    from repro.analysis.modelcheck import McConfig
    from repro.analysis.modelcheck.model import Execution

    def final_fws(scenario):
        ex = Execution(McConfig(p=2, fw=1, iters=3, window="aimd",
                                scenario=scenario))
        while not ex.is_done and ex.violation is None:
            actions = ex.enabled_actions()
            if not actions:
                break
            ex.apply(min(actions, key=lambda a: (a.kind, a.rank, a.src,
                                                 a.idx)))
        assert ex.violation is None
        return [ex.engines[r].fw for r in sorted(ex.engines)]

    assert min(final_fws("drift")) == 0     # shrank toward blocking
    assert max(final_fws("constant")) == 2  # widened to the bound


def test_specmc_runaway_window_mutation_is_caught():
    from repro.analysis.modelcheck import McConfig, explore

    result = explore(McConfig(p=2, fw=1, bw=1, iters=3),
                     mutation="runaway-window")
    assert result.violation is not None
    assert result.violation.invariant == "window-policy-bound"
