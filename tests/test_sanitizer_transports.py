"""One sanitizer, one observer seat, three transports.

The registry-backed :class:`ProtocolSanitizer` rides along on all
three backends (DES via ``Environment.sanitizer``/``CalendarRunner``,
loopback via ``LoopbackRunner(sanitize=...)``, pipes via
``PipeTransport(sanitize=...)``) through the one
:class:`~repro.engine.observer.RankObserver` each backend constructs.
These tests make the calls a deliberately broken engine hook would
make on the observer *each backend actually built* and assert it is
the shared seat that trips — plus a direct test that every observer
method feeds the sanitizer and the trace as pinned, that the replay
table makes each record's calls again, and an end-to-end loopback run
with a genuinely ungated engine.
"""

import numpy as np
import pytest

from repro.analysis.modelcheck.scenario import DriftProgram
from repro import api
from repro.api import RunConfig
from repro.engine.core import SpecEngine, topology
from repro.engine import events as ev
from repro.engine.loopback import CalendarRunner, LoopbackDeadlock, LoopbackRunner
from repro.engine.observer import REPLAYED, RankObserver
from repro.faults import EdgeFault, FaultPlan
from repro.harness.toys import JumpyProgram
from repro.policy import CostWindow, DegradedWindow
from repro.engine.pipes import PipeTransport
from repro.engine.sanitizer import ProtocolSanitizer, ProtocolViolation
from repro.trace.events import EventLog, TraceEvent
from repro.vm import Cluster, uniform_specs
from tests.observer_spy import spy_on


def _TinyProgram():
    """Two ranks, three iterations, every speculation rejected."""
    return DriftProgram(nprocs=2, iterations=3)


#: The calls of a broken engine hook: a compute step entered three
#: iterations past the verified horizon under FW=0 — the exact
#: forward-window-bound breach an ungated window gate produces.
_BROKEN_STREAM = (
    ("speculated", (1, 0)),
    ("compute_begin", (2, -1, 0)),
)

EXPECTED = "forward-window-bound"


def _drip(observer):
    """Make the broken calls on the observer a backend built."""
    assert type(observer) is RankObserver
    for name, args in _BROKEN_STREAM:
        getattr(observer, name)(*args)


def test_des_transport_seat_trips_forward_window_bound():
    program = _TinyProgram()
    needed, audience = topology(program)
    engines = {
        rank: SpecEngine(program, rank, needed[rank], audience[rank], fw=0)
        for rank in range(2)
    }
    runner = CalendarRunner(Cluster(uniform_specs(2)), engines, sanitize=True)
    with pytest.raises(ProtocolViolation) as exc:
        _drip(runner.observers[0])
    assert exc.value.invariant == EXPECTED


def test_loopback_seat_trips_forward_window_bound():
    program = _TinyProgram()
    needed, audience = topology(program)
    engines = {
        rank: SpecEngine(program, rank, needed[rank], audience[rank], fw=0)
        for rank in range(2)
    }
    runner = LoopbackRunner(engines, sanitize=True)
    with pytest.raises(ProtocolViolation) as exc:
        _drip(runner.observers[0])
    assert exc.value.invariant == EXPECTED


def test_pipe_transport_seat_trips_forward_window_bound():
    transport = PipeTransport(rank=0, conns={}, sanitize=True)
    with pytest.raises(ProtocolViolation) as exc:
        _drip(transport.observer)
    assert exc.value.invariant == EXPECTED


# Arguments for every observer method, with distinct values so a
# swapped peer/iteration in a method cannot cancel out.
_SAMPLES = {
    "speculated": (1, 3),
    "respeculated": (1, 3),
    "compute_begin": (3, 2, 1),
    "verified": (1, 3),
    "corrected": (1, 3),
    "cascade_begin": (3,),
    "cascade_step": (4,),
    "cascade_end": (),
    "window_changed": (4, 1, 2, 0, 5),
    "fault": (1, 7, 3),
    "retransmit": (1, 7, 1, 4),
    "degraded": (4, True),
    "ring_occupancy": (1, 2, 4),
    "inbox_depth": (1, 3, 2),
    "gap_healed": (1, 7),
}

#: What each method must do on rank 0: the sanitizer hook it calls
#: (None = none) and the trace record it leaves.
_EXPECTED_ROWS = {
    "speculated": (
        ("on_speculate", (0, 1, 3)), ("speculate", 1, "vars", 3, ())),
    # A cascade's re-speculation: sanitizer yes, trace no.
    "respeculated": (("on_speculate", (0, 1, 3)), None),
    "compute_begin": (
        ("on_compute_begin", (0, 3, 2, 1)), ("compute", None, None, 3, (2, 1))),
    "verified": (("on_verify", (0, 1, 3)), ("verify", 1, "vars", 3, ())),
    # A fresh observer has no cascade open (-1).
    "corrected": (None, ("correct", 1, "vars", 3, (-1,))),
    "cascade_begin": (("on_cascade_begin", (0, 3)), None),
    "cascade_step": (("on_cascade_step", (0, 4)), None),
    "cascade_end": (("on_cascade_end", (0,)), None),
    "window_changed": (
        ("on_window_changed", (0, 4, 1, 2, 0, 5)),
        ("window", 2, None, 4, (1, 0, 5))),
    "fault": (None, ("fault", 1, "vars", 3, (7,))),
    "retransmit": (
        ("on_retransmit", (0, 1, 7, 1, 4)),
        ("retransmit", 1, "vars", 7, (1, 4))),
    "degraded": (None, ("degraded", 1, None, 4, ())),
    "ring_occupancy": (("on_ring_occupancy", (0, 1, 2, 4)), None),
    "inbox_depth": (("on_inbox_depth", (0, 1, 3, 2)), None),
    "gap_healed": (("on_gap_healed", (0, 1, 7)), None),
}


class _SpySanitizer:
    """Records every hook call as (name, args)."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args: self.calls.append((name, args))


def test_observer_table_covers_every_notification_effect():
    """The effect alphabet is the six effects a transport or the fault
    layer acts on; everything else the engine reports is an observer
    method, and each method feeds the sanitizer and the trace exactly
    as pinned — a new method without a row fails here."""
    assert ev.Effect == (ev.Send, ev.Recv, ev.TryRecv, ev.Charge,
                         ev.IterationDone, ev.Retransmit)
    methods = {
        name for name, value in vars(RankObserver).items()
        if callable(value) and not name.startswith("_")
    } - {"begin"}
    assert methods == set(_SAMPLES) == set(_EXPECTED_ROWS)
    for name in sorted(methods):
        spy, records = _SpySanitizer(), []
        observer = RankObserver(
            0, sanitizer=spy, record=lambda *entry: records.append(entry))
        assert getattr(observer, name)(*_SAMPLES[name]) is None
        hook, record = _EXPECTED_ROWS[name]
        assert spy.calls == ([hook] if hook else []), name
        assert records == ([record] if record else []), name


def test_each_record_replays_its_effects_sanitizer_call():
    """:data:`REPLAYED` makes each record's observer calls again: the
    calls rebuilt from the records draw the very sanitizer calls, and
    leave the very records, the originals did.  A ``correct`` record is
    the cascade's repair or one of its steps, by the cascade's first
    iteration it carries."""
    stream = [
        (name, _SAMPLES[name]) for name in (
            "speculated", "compute_begin", "verified", "window_changed",
            "retransmit", "degraded", "fault")
    ]
    stream += [("cascade_begin", (3,)), ("corrected", (1, 3)),
               ("cascade_step", (4,)), ("corrected", (1, 4))]
    live, records = _SpySanitizer(), []
    observer = RankObserver(
        0, sanitizer=live, record=lambda *entry: records.append(entry))
    for name, args in stream:
        getattr(observer, name)(*args)
    assert set(REPLAYED) == {record[0] for record in records}
    replayed, again = _SpySanitizer(), []
    seat = RankObserver(
        0, sanitizer=replayed, record=lambda *entry: again.append(entry))
    for kind, peer, family, iteration, args in records:
        REPLAYED[kind](
            seat, TraceEvent(0, 0, kind, 0.0, peer, family, iteration, args))
    assert replayed.calls == live.calls
    assert again == records
    assert [r[4] for r in records if r[0] == "correct"] == [(3,), (3,)]


def test_a_chaotic_adaptive_run_yields_six_effects_and_tells_its_observer(
        monkeypatch):
    """Loopback, FW=1, every speculation rejected, an adaptive window and
    a drop plan: the engines yield only the six effects of the alphabet,
    and the protocol steps -- speculate, verify, correct, cascade,
    window, retransmit, fault -- reach each rank's observer as calls."""
    seen = {}
    build = api.rank_engine

    def watched(config, rank, topo):
        return spy_on(build(config, rank, topo), seen.setdefault(rank, []))

    monkeypatch.setattr(api, "rank_engine", watched)
    plan = FaultPlan(seed=3, edges=(EdgeFault("drop", 0.2),))
    report = api.run(RunConfig(
        JumpyProgram(nprocs=3, iterations=12), backend="loopback", fw=1,
        window_policy=DegradedWindow(CostWindow(epoch=2, min_fw=0, max_fw=2)),
        fault_plan=plan, sanitize=True))
    assert report.fault_summary["injected"]["drop"] > 0
    effects = [e for stream in seen.values() for e in stream
               if type(e) is not tuple]
    assert {type(e) for e in effects} <= set(ev.Effect)
    assert len(ev.Effect) == 6
    calls = {e[0] for stream in seen.values() for e in stream
             if type(e) is tuple}
    assert {"speculated", "compute_begin", "verified", "cascade_begin",
            "corrected", "cascade_end", "window_changed", "degraded",
            "retransmit", "fault"} <= calls


def test_a_violating_loopback_run_records_the_violating_effect_last():
    """The observer records a call before the sanitizer checks it, so
    the trace of a run the seat stopped ends at the call that broke
    the invariant, and that record alone re-raises it."""
    program = _TinyProgram()
    needed, audience = topology(program)
    engines = {
        rank: SpecEngine(
            program, rank, needed[rank], audience[rank], fw=0,
            pre_send_horizon=lambda engine, t: -(10 ** 9),
            window_ok=lambda engine, t: True,
        )
        for rank in range(2)
    }
    log = EventLog()
    runner = LoopbackRunner(engines, event_log=log, sanitize=True)
    with pytest.raises(ProtocolViolation) as exc:
        runner.run()
    last = log.events[-1]
    assert last.kind == "compute"
    with pytest.raises(ProtocolViolation) as again:
        REPLAYED["compute"](
            RankObserver(last.rank, sanitizer=ProtocolSanitizer()), last)
    assert again.value.invariant == exc.value.invariant == EXPECTED


def test_observer_owns_the_seeded_window_history():
    observer = RankObserver(0)
    observer.begin(type("E", (), {"fw": 2}))
    observer.window_changed(*_SAMPLES["window_changed"])
    assert observer.window_history == [(0, 2), (4, 2)]


def test_loopback_end_to_end_ungated_engine_trips_same_invariant():
    """A real engine whose window gate is disabled runs unboundedly
    ahead under FW=0; the loopback seat must catch it mid-run."""
    program = _TinyProgram()
    needed, audience = topology(program)

    engines = {}
    for rank in range(2):
        engines[rank] = SpecEngine(
            program, rank, needed[rank], audience[rank], fw=0,
            pre_send_horizon=lambda engine, t: -(10 ** 9),
            window_ok=lambda engine, t: True,
        )
    runner = LoopbackRunner(engines, sanitize=True)
    with pytest.raises((ProtocolViolation, LoopbackDeadlock)) as exc:
        runner.run()
    assert isinstance(exc.value, ProtocolViolation)
    assert exc.value.invariant == EXPECTED


def test_loopback_clean_run_is_silent_with_sanitizer():
    program = _TinyProgram()
    needed, audience = topology(program)
    engines = {
        rank: SpecEngine(program, rank, needed[rank], audience[rank], fw=1)
        for rank in range(2)
    }
    runner = LoopbackRunner(engines, sanitize=True)
    finals = runner.run()
    assert set(finals) == {0, 1}
    assert runner.sanitizer is not None


def test_pipes_sequence_gap_is_caught_by_sanitizer_seat():
    """A wire-level seq skip reaches the sanitizer's on_delivery when
    the transport-level contiguity check is out of the way; the id is
    the registry's sequence-gap-freedom, same as specmc's."""
    san = ProtocolSanitizer()
    san.on_delivery(0, 1, 0)
    with pytest.raises(ProtocolViolation) as exc:
        san.on_delivery(0, 1, 2)
    assert exc.value.invariant == "sequence-gap-freedom"


def test_sanitize_flag_uniform_default_env(monkeypatch):
    """sanitize=None defers to REPRO_SANITIZE on every backend."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    program = _TinyProgram()
    needed, audience = topology(program)
    engines = {
        rank: SpecEngine(program, rank, needed[rank], audience[rank], fw=1)
        for rank in range(2)
    }
    assert LoopbackRunner(engines).sanitizer is not None
    assert PipeTransport(rank=0, conns={}).sanitizer is not None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    engines2 = {
        rank: SpecEngine(program, rank, needed[rank], audience[rank], fw=1)
        for rank in range(2)
    }
    assert LoopbackRunner(engines2).sanitizer is None
    assert PipeTransport(rank=0, conns={}).sanitizer is None


def test_mp_worker_surfaces_sanitizer_and_send_seq():
    """Real processes: a sanitized run completes cleanly and messages
    still carry contiguous sequence numbers end to end."""
    from repro.api import RunConfig, run

    result = run(RunConfig(_TinyProgram(), backend="mp", fw=1, sanitize=True,
                           timeout=120))
    assert set(result.results) == {0, 1}
    assert np.isfinite(list(result.results.values())).all()
