"""Unit tests for the discrete-event kernel (events, processes, clock)."""

import pytest

from repro.des import AllOf, Environment, Event, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3.5)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 3.5
    assert env.now == 3.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1, value="hello")
        return got

    p = env.process(proc(env))
    env.run()
    assert p.value == "hello"


def test_process_return_value():
    env = Environment()

    def child(env):
        yield env.timeout(5)
        return 42

    def parent(env):
        result = yield env.process(child(env))
        return result

    p = env.process(parent(env))
    env.run()
    assert p.value == 42


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc(env):
        for d in (1, 2, 3):
            yield env.timeout(d)
            times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [1, 3, 6]


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_stops_clock():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(1)

    env.process(proc(env))
    env.run(until=4.5)
    assert env.now == 4.5


def test_run_until_time_in_past_rejected():
    env = Environment()
    env.run(until=5)
    with pytest.raises(SimulationError):
        env.run(until=3)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return "done"

    p = env.process(proc(env))
    assert env.run(until=p) == "done"
    assert env.now == 2


def test_run_until_never_triggered_event_raises():
    env = Environment()
    orphan = env.event()

    def proc(env):
        yield env.timeout(1)

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run(until=orphan)


def test_exception_in_process_propagates_through_wait():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("boom")

    def parent(env):
        try:
            yield env.process(bad(env))
        except ValueError as exc:
            return str(exc)

    p = env.process(parent(env))
    env.run()
    assert p.value == "boom"


def test_unhandled_process_failure_surfaces_from_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_event_succeed_once_only():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    evt = env.event()
    with pytest.raises(TypeError):
        evt.fail("not an exception")


def test_event_value_before_trigger_raises():
    env = Environment()
    evt = env.event()
    with pytest.raises(SimulationError):
        _ = evt.value
    with pytest.raises(SimulationError):
        _ = evt.ok


def test_manual_event_wakes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    def waiter(env):
        val = yield gate
        log.append((env.now, val))

    def opener(env):
        yield env.timeout(7)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert log == [(7, "open")]


def test_allof_waits_for_all():
    env = Environment()

    def proc(env):
        a = env.timeout(1, value="a")
        b = env.timeout(5, value="b")
        results = yield AllOf(env, [a, b])
        return (env.now, sorted(results.values()))

    p = env.process(proc(env))
    env.run()
    assert p.value == (5, ["a", "b"])


def test_empty_allof_triggers_immediately():
    env = Environment()

    def proc(env):
        res = yield AllOf(env, [])
        return res

    p = env.process(proc(env))
    env.run()
    assert p.value == {}


def test_yield_already_processed_event_resumes():
    env = Environment()

    def proc(env):
        t = env.timeout(1, value="x")
        yield env.timeout(5)  # t fires and is processed meanwhile
        val = yield t
        return (env.now, val)

    p = env.process(proc(env))
    env.run()
    assert p.value == (5, "x")


def test_yield_non_event_is_error():
    env = Environment()

    def proc(env):
        yield 42

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run()


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc(env):
        yield env.timeout(1)

    p = env.process(proc(env))
    assert "alive" in repr(p) and not p.triggered
    env.run()
    assert "finished" in repr(p) and p.triggered


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(4)
    assert env.peek() == 4
    env2 = Environment()
    assert env2.peek() == float("inf")


def test_schedule_into_past_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.schedule(-1.0, lambda _: None)


def test_succeed_at_into_past_rejected():
    """An absolute time behind a clock that has moved is rejected."""
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.schedule(4.0, lambda _: None)
    assert env.peek() == float("inf")


def test_schedule_lands_on_the_absolute_time():
    """Counted down from 0.2, 0.9 becomes 0.2 + (0.9 - 0.2) =
    0.8999999999999999; scheduled absolutely it is 0.9."""
    env = Environment()
    env.run(until=0.2)
    seen = []
    env.schedule(0.9, lambda value: seen.append((env.now, value)), "done")
    env.run()
    assert seen == [(0.9, "done")]
    assert 0.9 != 0.2 + (0.9 - 0.2)


def test_same_instant_order_is_priority_then_insertion():
    env = Environment()
    order = []
    for tag, priority in (("late", 2), ("a", 1), ("first", 0), ("b", 1)):
        env.schedule(1.0, order.append, tag, priority)
    gate = env.event()
    gate.add_callback(lambda event: order.append(event.value))
    env.run(until=0.5)
    gate.succeed("event")  # an event is one entry, at (now, 1)
    env.run()
    assert order == ["event", "first", "a", "b", "late"]


def test_an_event_is_one_calendar_entry_that_runs_its_callbacks():
    env = Environment()
    seen = []
    evt = env.timeout(2.0, value="v")
    evt.add_callback(lambda event: seen.append(("first", event.value)))
    evt.add_callback(lambda event: seen.append(("second", env.now)))
    assert len(env._queue) == 1 and env._queue[0][3] is evt
    env.step()
    assert seen == [("first", "v"), ("second", 2.0)]
    assert evt.callbacks is None and env.peek() == float("inf")


def test_determinism_same_seed_same_trace():
    def build_and_run():
        env = Environment()
        log = []

        def proc(env, tag, delay):
            yield env.timeout(delay)
            log.append((env.now, tag))

        for i, d in enumerate([3, 1, 2, 1, 3]):
            env.process(proc(env, i, d))
        env.run()
        return log

    assert build_and_run() == build_and_run()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_empty_schedule_error():
    from repro.des.errors import EmptySchedule

    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_condition_failure_propagates():
    """If any sub-event of an AllOf fails, the condition fails too."""
    env = Environment()

    def failer(env):
        yield env.timeout(1)
        raise ValueError("sub-event failed")

    def waiter(env):
        ok = env.timeout(5, value="ok")
        bad = env.process(failer(env))
        try:
            yield AllOf(env, [ok, bad])
        except ValueError as exc:
            return f"caught: {exc}"

    p = env.process(waiter(env))
    env.run()
    assert p.value == "caught: sub-event failed"


def test_condition_cross_environment_rejected():
    env1, env2 = Environment(), Environment()
    with pytest.raises(SimulationError):
        AllOf(env1, [env1.timeout(1), env2.timeout(1)])


def test_run_until_already_processed_event():
    env = Environment()
    t = env.timeout(1, value="v")
    env.run()
    assert env.run(until=t) == "v"


def test_run_until_failed_processed_event_raises():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("boom")

    def watcher(env, target):
        try:
            yield target
        except RuntimeError:
            pass

    p = env.process(bad(env))
    env.process(watcher(env, p))
    env.run()
    with pytest.raises(RuntimeError):
        env.run(until=p)


def test_repr_forms():
    env = Environment()
    evt = env.event()
    assert "pending" in repr(evt)
    evt.succeed()
    assert "triggered" in repr(evt)

    def proc(env):
        yield env.timeout(1)

    p = env.process(proc(env), name="worker")
    assert "worker" in repr(p)
    assert "Environment" in repr(env)
