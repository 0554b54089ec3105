"""One sanitizer, one observer table, three transports.

The registry-backed :class:`ProtocolSanitizer` rides along on all
three backends (DES via ``Environment.sanitizer``/``DESTransport``,
loopback via ``LoopbackRunner(sanitize=...)``, pipes via
``PipeTransport(sanitize=...)``) through the one
:class:`~repro.engine.observer.RankObserver` each backend constructs.
These tests feed the observer *each backend actually built* the effect
stream a deliberately broken engine hook would emit and assert it is
the shared table that trips — plus a direct test that the table covers
every notification effect, and an end-to-end loopback run with a
genuinely ungated engine.
"""

import numpy as np
import pytest

from repro.analysis.modelcheck.scenario import DriftProgram
from repro.analysis.sanitizer import ProtocolSanitizer, ProtocolViolation
from repro.engine.core import SpecEngine, topology
from repro.engine.des_transport import DESTransport
from repro.engine import events as ev
from repro.engine.events import ComputeBegin, Speculated
from repro.engine.loopback import LoopbackDeadlock, LoopbackRunner
from repro.engine.observer import OBSERVED, RankObserver
from repro.engine.pipes import PipeTransport


def _TinyProgram():
    """Two ranks, three iterations, every speculation rejected."""
    return DriftProgram(nprocs=2, iterations=3)


#: The effect stream of a broken engine hook: a compute step entered
#: three iterations past the verified horizon under FW=0 — the exact
#: forward-window-bound breach an ungated window gate produces.
_BROKEN_STREAM = (
    Speculated(peer=1, iteration=0),
    ComputeBegin(iteration=2, verified_upto=-1, fw=0),
)

EXPECTED = "forward-window-bound"


class _StubEnv:
    now = 0.0


class _StubProc:
    rank = 0
    env = _StubEnv()


def _drip(observer):
    """Feed the broken stream through the observer a backend built."""
    assert type(observer) is RankObserver
    for effect in _BROKEN_STREAM:
        observer.notify(effect)


def test_des_transport_seat_trips_forward_window_bound():
    transport = DESTransport(_StubProc(), sanitizer=ProtocolSanitizer())
    with pytest.raises(ProtocolViolation) as exc:
        _drip(transport.observer)
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


# One instance of every effect type, with distinct field values so a
# swapped peer/iteration in a table row cannot cancel out.
_SAMPLES = {
    ev.Speculated: ev.Speculated(peer=1, iteration=3),
    ev.ComputeBegin: ev.ComputeBegin(iteration=3, verified_upto=2, fw=1),
    ev.Verified: ev.Verified(peer=1, iteration=3),
    ev.Corrected: ev.Corrected(peer=1, iteration=3),
    ev.CascadeBegin: ev.CascadeBegin(iteration=3),
    ev.CascadeStep: ev.CascadeStep(iteration=4),
    ev.CascadeEnd: ev.CascadeEnd(),
    ev.IterationDone: ev.IterationDone(iteration=3),
    ev.WindowChanged: ev.WindowChanged(
        iteration=4, old_fw=1, new_fw=2, min_fw=0, max_fw=5),
    ev.FaultInjected: ev.FaultInjected(kind="drop", src=1, seq=7, iteration=3),
    ev.Retransmit: ev.Retransmit(
        peer=1, seq=7, attempt=1, max_attempts=4, backoff=1.0),
    ev.Degraded: ev.Degraded(iteration=4, active=True, losses=2),
}

#: What the shared table must do with each sample on rank 0: the
#: sanitizer hook it calls (None = none) and the trace record it leaves.
_EXPECTED_ROWS = {
    ev.Speculated: (("on_speculate", (0, 1, 3)), ("speculate", 1, "vars", 3)),
    ev.ComputeBegin: (
        ("on_compute_begin", (0, 3, 2, 1)), ("compute", None, None, 3)),
    ev.Verified: (("on_verify", (0, 1, 3)), ("verify", 1, "vars", 3)),
    ev.Corrected: (None, ("correct", 1, "vars", 3)),
    ev.CascadeBegin: (("on_cascade_begin", (0, 3)), None),
    ev.CascadeStep: (("on_cascade_step", (0, 4)), None),
    ev.CascadeEnd: (("on_cascade_end", (0,)), None),
    ev.IterationDone: (None, None),
    ev.WindowChanged: (
        ("on_window_changed", (0, 4, 1, 2, 0, 5)), ("window", 2, None, 4)),
    ev.FaultInjected: (None, ("fault", 1, "vars", 3)),
    ev.Retransmit: (
        ("on_retransmit", (0, 1, 7, 1, 4)), ("retransmit", 1, "vars", 7)),
    ev.Degraded: (None, ("degraded", 1, None, 4)),
}


class _SpySanitizer:
    """Records every hook call as (name, args)."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args: self.calls.append((name, args))


def test_observer_table_covers_every_notification_effect():
    """Every effect a transport does not interpret itself (all of
    ``Effect`` but the four I/O + cost effects) has a table row, and
    each row feeds the sanitizer and the trace exactly as pinned — a
    new effect type without a row fails here."""
    notifications = [
        kind for kind in ev.Effect
        if kind not in (ev.Send, ev.Recv, ev.TryRecv, ev.Charge)
    ]
    assert set(OBSERVED) == set(notifications) == set(_SAMPLES)
    for kind in notifications:
        spy, records = _SpySanitizer(), []
        observer = RankObserver(
            0, sanitizer=spy, record=lambda *entry: records.append(entry),
            clock=lambda: 12.5,
        )
        response = observer.notify(_SAMPLES[kind])
        hook, record = _EXPECTED_ROWS[kind]
        assert spy.calls == ([hook] if hook else []), kind
        assert records == ([record] if record else []), kind
        assert response == (12.5 if kind is ev.IterationDone else None)
    # The in_cascade suppression rule: sanitizer yes, trace no.
    spy, records = _SpySanitizer(), []
    RankObserver(0, sanitizer=spy, record=lambda *e: records.append(e)).notify(
        ev.Speculated(peer=1, iteration=3, in_cascade=True)
    )
    assert spy.calls == [("on_speculate", (0, 1, 3))] and records == []


def test_observer_owns_the_seeded_window_history():
    observer = RankObserver(0)
    observer.begin(type("E", (), {"fw": 2}))
    observer.notify(_SAMPLES[ev.WindowChanged])
    assert observer.window_history == [(0, 2), (4, 2)]
    assert observer.notify(ev.IterationDone(iteration=0)) is None  # no clock


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
