"""Unit tests for Store, and for the Resource that the network parity
oracle (``tests/test_netsim_parity.py``) queues on."""

import pytest

from repro.des import Environment, SimulationError, Store

from tests.test_netsim_parity import Resource


def run(env, gen):
    p = env.process(gen)
    env.run()
    return p.value


def test_store_put_then_get_fifo():
    env = Environment()
    store = Store(env)

    def proc(env):
        store.put("a")
        store.put("b")
        first = yield store.get()
        second = yield store.get()
        return (first, second)

    assert run(env, proc(env)) == ("a", "b")


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def consumer(env):
        item = yield store.get()
        return (env.now, item)

    def producer(env):
        yield env.timeout(5)
        store.put("late")

    c = env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert c.value == (5, "late")


def test_store_filtered_get_skips_nonmatching():
    env = Environment()
    store = Store(env)

    def proc(env):
        store.put(("from", 1))
        store.put(("from", 2))
        got = yield store.get(filter=lambda m: m[1] == 2)
        return got

    assert run(env, proc(env)) == ("from", 2)
    assert list(store.items) == [("from", 1)]


def test_store_filtered_get_blocks_until_match():
    env = Environment()
    store = Store(env)

    def consumer(env):
        got = yield store.get(filter=lambda m: m == "wanted")
        return (env.now, got)

    def producer(env):
        store.put("other")
        yield env.timeout(3)
        store.put("wanted")

    c = env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert c.value == (3, "wanted")
    assert list(store.items) == ["other"]


def test_store_put_costs_no_event_and_counts():
    env = Environment()
    store = Store(env)
    for item in (1, 2, 3):
        store.put(item)
    assert env.peek() == float("inf")  # a put costs no calendar event
    assert list(store.items) == [1, 2, 3]
    assert len(store) == 3


def test_multiple_consumers_fifo_service():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, tag):
        item = yield store.get()
        got.append((tag, item))

    def producer(env):
        yield env.timeout(1)
        for i in range(3):
            store.put(i)

    for tag in "abc":
        env.process(consumer(env, tag))
    env.process(producer(env))
    env.run()
    assert got == [("a", 0), ("b", 1), ("c", 2)]


def test_resource_mutual_exclusion():
    env = Environment()
    bus = Resource(env, capacity=1)
    spans = []

    def user(env, tag, hold):
        req = bus.request()
        yield req
        start = env.now
        yield env.timeout(hold)
        bus.release(req)
        spans.append((tag, start, env.now))

    env.process(user(env, "a", 3))
    env.process(user(env, "b", 2))
    env.run()
    # b must start exactly when a releases
    assert spans == [("a", 0, 3), ("b", 3, 5)]


def test_resource_capacity_two_overlaps():
    env = Environment()
    r = Resource(env, capacity=2)
    starts = {}

    def user(env, tag):
        req = r.request()
        yield req
        starts[tag] = env.now
        yield env.timeout(5)
        r.release(req)

    for tag in ("a", "b", "c"):
        env.process(user(env, tag))
    env.run()
    assert starts["a"] == 0 and starts["b"] == 0 and starts["c"] == 5


def test_resource_release_unheld_rejected():
    env = Environment()
    r = Resource(env)

    def proc(env):
        req = r.request()
        yield req
        r.release(req)
        r.release(req)

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run()


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_counters():
    env = Environment()
    r = Resource(env, capacity=1)

    def holder(env):
        req = r.request()
        yield req
        yield env.timeout(10)
        r.release(req)

    def waiter(env):
        yield env.timeout(1)
        req = r.request()
        yield req
        r.release(req)

    env.process(holder(env))
    env.process(waiter(env))
    env.run(until=2)
    assert repr(r) == "<Resource in_use=1/1 queued=1>"
