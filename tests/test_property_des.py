"""Property-based tests: DES kernel ordering and store invariants."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Store


@settings(max_examples=100, deadline=None)
@given(delays=st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=30))
def test_property_events_fire_in_time_order(delays):
    env = Environment()
    fired = []

    def proc(env, d, tag):
        yield env.timeout(d)
        fired.append((env.now, tag))

    for i, d in enumerate(delays):
        env.process(proc(env, d, i))
    env.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)
    # Ties break in creation order.
    assert sorted(fired) == fired


@settings(max_examples=100, deadline=None)
@given(
    delays=st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=20),
    until=st.floats(0.0, 15.0, allow_nan=False),
)
def test_property_run_until_never_overshoots(delays, until):
    env = Environment()
    for d in delays:
        env.timeout(d)
    env.run(until=until)
    assert env.now == pytest.approx(until)


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("put"), st.integers(0, 100)),
            st.tuples(st.just("get"), st.just(0)),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_property_store_fifo_semantics(ops):
    """A Store behaves exactly like a FIFO queue (model-based test)."""
    env = Environment()
    store = Store(env)
    model = deque()
    got = []
    expected = []

    def proc(env):
        for kind, value in ops:
            if kind == "put":
                store.put(value)
                model.append(value)
            elif model:
                # Only get when the model says an item is available, so
                # the test never blocks.
                item = yield store.get()
                got.append(item)
                expected.append(model.popleft())

    env.process(proc(env))
    env.run()
    assert got == expected
    assert list(store.items) == list(model)


@settings(max_examples=60, deadline=None)
@given(
    n_producers=st.integers(1, 4),
    items_each=st.integers(1, 5),
)
def test_property_store_conserves_items(n_producers, items_each):
    env = Environment()
    store = Store(env)
    received = []

    def producer(env, base):
        for i in range(items_each):
            yield env.timeout(0.5)
            store.put(base * 100 + i)

    def consumer(env, total):
        for _ in range(total):
            item = yield store.get()
            received.append(item)

    for b in range(n_producers):
        env.process(producer(env, b))
    env.process(consumer(env, n_producers * items_each))
    env.run()
    assert len(received) == n_producers * items_each
    assert len(set(received)) == len(received)  # nothing duplicated
