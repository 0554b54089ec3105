"""Tests for the runtime ProtocolSanitizer.

Three layers:

* direct hook tests — each invariant fires on a crafted violation and
  stays quiet on the legal sequence;
* integration — a clean speculative run passes under ``sanitize=True``,
  and engines whose forward-window gates are sabotaged are caught
  *during a real simulation*;
* wiring — the ``REPRO_SANITIZE`` environment flag and the CLI
  selftest.
"""

import numpy as np
import pytest

from repro.engine import loopback
from repro.api import RunConfig, run
from repro.cli import main
from repro.des import Environment
from repro.engine import CalendarRunner, SpecEngine, topology
from repro.engine.sanitizer import (
    ENV_FLAG,
    ProtocolSanitizer,
    ProtocolViolation,
    run_selftest,
    sanitize_enabled,
    sanitizer_from_env,
)
from repro.netsim import ConstantLatency, DelayNetwork
from repro.vm import Cluster, uniform_specs

from tests.toy_programs import CoupledIncrement


def make_cluster(p, latency=0.0, capacity=1000.0):
    return Cluster(
        uniform_specs(p, capacity=capacity),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(latency)),
    )


# ------------------------------------------------------------- direct hooks
def test_monotonic_virtual_time_violation():
    san = ProtocolSanitizer()
    with pytest.raises(ProtocolViolation) as exc:
        san.on_event_processed(object(), now=1.0, prev_now=2.0)
    assert exc.value.invariant == "monotonic-virtual-time"


def test_monotonic_virtual_time_across_steps():
    san = ProtocolSanitizer()
    san.on_event_processed(object(), now=5.0, prev_now=4.0)
    with pytest.raises(ProtocolViolation):
        san.on_event_processed(object(), now=3.0, prev_now=3.0)


def test_event_state_machine_untriggered_event():
    class FakeEvent:
        triggered = False
        callbacks = []

    san = ProtocolSanitizer()
    with pytest.raises(ProtocolViolation) as exc:
        san.on_event_processed(FakeEvent(), now=0.0, prev_now=0.0)
    assert exc.value.invariant == "event-state-machine"


def test_the_calendar_checks_every_entry_and_the_state_of_each_event():
    env = Environment()
    env.sanitizer = san = ProtocolSanitizer()
    event = env.event().succeed("x")
    env.schedule(0.0, lambda _: None)  # a plain callback: the clock only
    env.schedule(0.0, event)  # the same event a second time
    env.step()
    env.step()
    assert san.events_checked == 2
    with pytest.raises(ProtocolViolation) as exc:
        env.step()
    assert exc.value.invariant == "event-state-machine"


def test_event_state_machine_double_processing():
    class FakeEvent:
        triggered = True
        callbacks = None  # already consumed

    san = ProtocolSanitizer()
    with pytest.raises(ProtocolViolation) as exc:
        san.on_event_processed(FakeEvent(), now=0.0, prev_now=0.0)
    assert exc.value.invariant == "event-state-machine"


def test_verify_without_speculate():
    san = ProtocolSanitizer()
    with pytest.raises(ProtocolViolation) as exc:
        san.on_verify(0, 1, 3)
    assert exc.value.invariant == "verify-without-speculate"


def test_speculate_then_verify_is_legal():
    san = ProtocolSanitizer()
    san.on_speculate(0, 1, 3)
    san.on_verify(0, 1, 3)
    san.on_run_end()  # nothing outstanding


def test_outstanding_speculation_at_run_end():
    san = ProtocolSanitizer()
    san.on_speculate(0, 1, 3)
    with pytest.raises(ProtocolViolation) as exc:
        san.on_run_end()
    assert exc.value.invariant == "eventual-verification"


def test_forward_window_bound_fw0():
    san = ProtocolSanitizer()
    with pytest.raises(ProtocolViolation) as exc:
        san.on_compute_begin(0, t=2, verified_upto=1, fw=0)
    assert exc.value.invariant == "forward-window-bound"


def test_forward_window_bound_fw_exceeded():
    san = ProtocolSanitizer()
    san.on_compute_begin(0, t=3, verified_upto=1, fw=1)  # distance 1: legal
    with pytest.raises(ProtocolViolation) as exc:
        san.on_compute_begin(0, t=4, verified_upto=1, fw=1)  # distance 2
    assert exc.value.invariant == "forward-window-bound"


def test_ring_occupancy_over_capacity():
    san = ProtocolSanitizer()
    san.on_ring_occupancy(0, src=1, occupancy=4, capacity=4)  # full: legal
    with pytest.raises(ProtocolViolation) as exc:
        san.on_ring_occupancy(0, src=1, occupancy=5, capacity=4)
    assert exc.value.invariant == "buffer-occupancy-bounded"


def test_inbox_depth_over_bound():
    san = ProtocolSanitizer()
    san.on_inbox_depth(0, src=1, depth=3, bound=3)  # at the bound: legal
    with pytest.raises(ProtocolViolation) as exc:
        san.on_inbox_depth(0, src=1, depth=4, bound=3)
    assert exc.value.invariant == "buffer-occupancy-bounded"


def test_cascade_order_violation():
    san = ProtocolSanitizer()
    san.on_cascade_begin(0, 4)
    san.on_cascade_step(0, 5)  # ascending: fine
    with pytest.raises(ProtocolViolation) as exc:
        san.on_cascade_step(0, 5)  # not strictly ascending
    assert exc.value.invariant == "cascade-order"


def test_cascade_step_outside_cascade():
    san = ProtocolSanitizer()
    with pytest.raises(ProtocolViolation) as exc:
        san.on_cascade_step(0, 2)
    assert exc.value.invariant == "cascade-order"


def test_violation_carries_phase_trace():
    san = ProtocolSanitizer()
    san.on_speculate(0, 1, 2)
    with pytest.raises(ProtocolViolation) as exc:
        san.on_verify(0, 1, 9)
    assert exc.value.trace  # non-empty excerpt
    assert any("speculate" in line for line in exc.value.trace)
    assert "recent phase trace" in str(exc.value)


def _armed(monkeypatch):
    """The sanitizers the DES backend resolves, in run order (a report
    carries none, so watch the one place the knob is resolved: the
    runner's constructor)."""
    armed = []
    resolve = loopback.resolve_sanitizer

    def watched(sanitize):
        armed.append(resolve(sanitize))
        return armed[-1]

    monkeypatch.setattr(loopback, "resolve_sanitizer", watched)
    return armed


# -------------------------------------------------------------- integration
def test_clean_speculative_run_passes_sanitizer(monkeypatch):
    armed = _armed(monkeypatch)
    prog = CoupledIncrement(nprocs=3, iterations=6, coupling=0.2)
    result = run(RunConfig(prog, fw=2, sanitize=True,
                           cluster=make_cluster(3, latency=0.4)))
    (sanitizer,) = armed
    assert sanitizer is not None
    assert sanitizer.events_checked > 0
    # Result identical to an unsanitized run: the sanitizer observes only.
    plain = run(RunConfig(CoupledIncrement(nprocs=3, iterations=6, coupling=0.2),
                          fw=2, cluster=make_cluster(3, latency=0.4)))
    for rank in result.results:
        np.testing.assert_array_equal(result.results[rank], plain.results[rank])


def test_sanitizer_catches_forward_window_violation_in_real_run():
    """Both forward-window gates sabotaged through the engine's
    constructor hooks: ranks race ahead without waiting for
    verification — exactly the class of bug the sanitizer exists to
    catch."""
    prog = CoupledIncrement(nprocs=3, iterations=8, coupling=0.2)
    # Latency far above the per-iteration compute time: messages lag by
    # many iterations, so an ungated fw=1 rank exceeds its window fast.
    cluster = make_cluster(3, latency=50.0)
    sanitizer = ProtocolSanitizer()
    needed, audience = topology(prog)
    engines = {
        rank: SpecEngine(
            prog, rank, needed[rank], audience[rank], fw=1,
            pre_send_horizon=lambda eng, t: -1,  # never wait before sending
            window_ok=lambda eng, t: True,
        )
        for rank in range(3)
    }

    with pytest.raises(ProtocolViolation) as exc:
        CalendarRunner(cluster, engines, sanitize=sanitizer).run()
    assert exc.value.invariant == "forward-window-bound"


def test_sanitize_false_disables_even_with_env(monkeypatch):
    monkeypatch.setenv(ENV_FLAG, "1")
    armed = _armed(monkeypatch)
    prog = CoupledIncrement(nprocs=2, iterations=3)
    run(RunConfig(prog, fw=1, sanitize=False, cluster=make_cluster(2)))
    assert armed == [None]


# ------------------------------------------------------------------- wiring
def test_env_flag_parsing(monkeypatch):
    for value in ("1", "true", "YES", " on "):
        monkeypatch.setenv(ENV_FLAG, value)
        assert sanitize_enabled()
        assert sanitizer_from_env() is not None
    for value in ("", "0", "no", "off"):
        monkeypatch.setenv(ENV_FLAG, value)
        assert not sanitize_enabled()
        assert sanitizer_from_env() is None


def test_env_flag_arms_driver(monkeypatch):
    monkeypatch.setenv(ENV_FLAG, "1")
    armed = _armed(monkeypatch)
    prog = CoupledIncrement(nprocs=2, iterations=3)
    run(RunConfig(prog, fw=1, cluster=make_cluster(2, latency=0.1)))
    (sanitizer,) = armed  # and the run stayed clean
    assert isinstance(sanitizer, ProtocolSanitizer)
    assert sanitizer.events_checked > 0


def test_selftest_passes():
    assert run_selftest() == 0


def test_cli_sanitize_selftest(capsys):
    assert main(["lint", "--sanitize-selftest"]) == 0
    out = capsys.readouterr().out
    assert "sanitizer selftest ok" in out
    assert "10 crafted violations detected" in out
