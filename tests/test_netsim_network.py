"""Unit tests for SharedBus, BackgroundTraffic and the Network transports."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import AllOf, Environment, Event
from repro.netsim import (
    BackgroundTraffic,
    BusNetwork,
    ConstantLatency,
    DelayNetwork,
    SharedBus,
    StochasticLatency,
    SwitchedNetwork,
)


def transfer(bus, nbytes) -> Event:
    """An event that fires when ``bus`` completes an ``nbytes`` transfer."""
    done = bus.env.event()
    bus.transfer(nbytes, lambda _: done.succeed())
    return done


def arrival(net, src, dst, nbytes) -> Event:
    """An event that fires, with ``(src, dst, nbytes)``, when ``net``
    delivers the message."""
    done = net.env.event()
    net.transmit(src, dst, nbytes, lambda _: done.succeed((src, dst, nbytes)))
    return done


def ignore(_):
    """A delivery nobody waits on."""


# --------------------------------------------------------------------------- bus
def test_bus_occupancy_formula():
    env = Environment()
    bus = SharedBus(env, bandwidth=1000.0, frame_overhead=0.1)
    assert bus.occupancy(500) == pytest.approx(0.6)


def test_bus_single_transfer_time():
    env = Environment()
    bus = SharedBus(env, bandwidth=100.0)

    done = transfer(bus, 50)
    env.run(until=done)
    assert env.now == pytest.approx(0.5)


def test_bus_serializes_concurrent_transfers():
    env = Environment()
    bus = SharedBus(env, bandwidth=100.0)
    a = transfer(bus, 100)  # 1s
    b = transfer(bus, 100)  # must queue behind a
    env.run(until=AllOf(env, [a, b]))
    assert env.now == pytest.approx(2.0)


def test_bus_stats_accumulate():
    env = Environment()
    bus = SharedBus(env, bandwidth=100.0)
    done = transfer(bus, 100)
    env.run(until=done)
    assert bus.bytes_transferred == 100
    assert bus.busy_time == pytest.approx(1.0)


def test_bus_validation():
    env = Environment()
    with pytest.raises(ValueError):
        SharedBus(env, bandwidth=0)
    with pytest.raises(ValueError):
        SharedBus(env, bandwidth=1, frame_overhead=-1)
    bus = SharedBus(env, bandwidth=1)
    with pytest.raises(ValueError):
        bus.transfer(-1, ignore)


def test_background_traffic_delays_foreground():
    def completion_time(with_bg: bool) -> float:
        env = Environment()
        bus = SharedBus(env, bandwidth=1000.0)
        if with_bg:
            BackgroundTraffic(rate=50.0, frame_bytes=100, seed=3).attach(bus, until=10.0)
        # Start foreground transfer at t=1 so background queue builds up.
        results = []

        def fg(env):
            yield env.timeout(1.0)
            yield transfer(bus, 1000)
            results.append(env.now)

        done = env.process(fg(env))
        env.run(until=done)
        return results[0]

    assert completion_time(True) > completion_time(False)


def test_background_traffic_zero_rate_noop():
    env = Environment()
    bus = SharedBus(env, bandwidth=1000.0)
    BackgroundTraffic(rate=0.0).attach(bus)
    done = transfer(bus, 100)
    env.run(until=done)
    assert env.now == pytest.approx(0.1)


def test_background_traffic_validation():
    with pytest.raises(ValueError):
        BackgroundTraffic(rate=-1)
    with pytest.raises(ValueError):
        BackgroundTraffic(rate=1, frame_bytes=-5)


def test_background_traffic_deterministic():
    def run_once() -> float:
        env = Environment()
        bus = SharedBus(env, bandwidth=500.0)
        BackgroundTraffic(rate=20.0, frame_bytes=200, seed=11).attach(bus, until=5.0)

        def fg(env):
            yield env.timeout(2.0)
            yield transfer(bus, 500)
            return env.now

        done = env.process(fg(env))
        return env.run(until=done)

    assert run_once() == run_once()


# ----------------------------------------------------------------------- networks
def test_delay_network_delivery_time():
    env = Environment()
    net = DelayNetwork(env, ConstantLatency(0.25))
    ev = arrival(net, 0, 1, 100)
    env.run(until=ev)
    assert env.now == pytest.approx(0.25)
    assert ev.value == (0, 1, 100)


def test_delay_network_default_zero_latency():
    env = Environment()
    net = DelayNetwork(env)
    ev = arrival(net, 0, 1, 10)
    env.run(until=ev)
    assert env.now == 0.0


def test_delay_network_fifo_per_channel():
    """A later message on the same channel may not overtake an earlier one."""

    class Decreasing(ConstantLatency):
        """First message slow, second fast (would overtake without FIFO)."""

        def __init__(self):
            object.__setattr__(self, "seconds", 0.0)
            self.calls = 0

        def delay(self, src, dst, now):
            self.calls += 1
            return 1.0 if self.calls == 1 else 0.1

    env = Environment()
    net = DelayNetwork(env, Decreasing())
    first = arrival(net, 0, 1, 10)
    second = arrival(net, 0, 1, 10)
    arrivals = {}

    def watch(env):
        yield first
        arrivals["first"] = env.now
        yield second
        arrivals["second"] = env.now

    done = env.process(watch(env))
    env.run(until=done)
    assert arrivals["first"] == pytest.approx(1.0)
    assert arrivals["second"] >= arrivals["first"]


def test_delay_network_distinct_channels_independent():
    env = Environment()
    net = DelayNetwork(env, ConstantLatency(0.5))
    a = arrival(net, 0, 1, 10)
    b = arrival(net, 2, 3, 10)
    env.run(until=AllOf(env, [a, b]))
    assert env.now == pytest.approx(0.5)  # fully parallel


def test_delay_network_accounting():
    env = Environment()
    net = DelayNetwork(env)
    net.transmit(0, 1, 100, ignore)
    net.transmit(1, 0, 200, ignore)
    assert net.messages_sent == 2
    assert net.bytes_sent == 300


def test_delay_network_rejects_negative_size():
    env = Environment()
    net = DelayNetwork(env)
    with pytest.raises(ValueError):
        net.transmit(0, 1, -1, ignore)


def test_bus_network_contention_grows_completion_time():
    """p concurrent messages on the bus finish ~p times later than one."""

    def total_time(n_messages: int) -> float:
        env = Environment()
        bus = SharedBus(env, bandwidth=1000.0)
        net = BusNetwork(env, bus)
        events = [arrival(net, i, (i + 1) % 8, 1000) for i in range(n_messages)]
        env.run(until=AllOf(env, events))
        return env.now

    t1 = total_time(1)
    t4 = total_time(4)
    assert t4 == pytest.approx(4 * t1)


def test_bus_network_endpoint_latency_overlaps():
    """Endpoint latency is paid in parallel; wire time serializes."""
    env = Environment()
    bus = SharedBus(env, bandwidth=1000.0)
    net = BusNetwork(env, bus, latency=ConstantLatency(0.5))
    a = arrival(net, 0, 1, 1000)  # 0.5 + 1.0 wire
    b = arrival(net, 2, 3, 1000)  # endpoint overlaps; wire queues
    env.run(until=AllOf(env, [a, b]))
    assert env.now == pytest.approx(0.5 + 1.0 + 1.0)


def test_bus_network_rejects_negative_size():
    env = Environment()
    net = BusNetwork(env, SharedBus(env, bandwidth=1))
    with pytest.raises(ValueError):
        net.transmit(0, 1, -1, ignore)


def test_bus_network_size_dependent_time():
    env = Environment()
    bus = SharedBus(env, bandwidth=100.0)
    net = BusNetwork(env, bus, latency=ConstantLatency(0.1))
    ev = arrival(net, 0, 1, 200)
    env.run(until=ev)
    assert env.now == pytest.approx(0.1 + 2.0)


def test_switched_network_parallel_disjoint_pairs():
    """Disjoint pairs transfer fully in parallel on a switch."""
    env = Environment()
    net = SwitchedNetwork(env, nprocs=4, bandwidth=1000.0)
    a = arrival(net, 0, 1, 1000)
    b = arrival(net, 2, 3, 1000)
    env.run(until=AllOf(env, [a, b]))
    # store-and-forward: egress + ingress = 2 seconds, overlapped pairs
    assert env.now == pytest.approx(2.0)


def test_switched_network_contends_per_endpoint():
    """Two messages into the same receiver serialize at its ingress."""
    env = Environment()
    net = SwitchedNetwork(env, nprocs=3, bandwidth=1000.0)
    a = arrival(net, 0, 2, 1000)
    b = arrival(net, 1, 2, 1000)
    env.run(until=AllOf(env, [a, b]))
    # egress overlaps (different senders); ingress serializes.
    assert env.now == pytest.approx(3.0)


def test_switched_network_validation():
    env = Environment()
    with pytest.raises(ValueError):
        SwitchedNetwork(env, nprocs=0, bandwidth=1.0)
    with pytest.raises(ValueError):
        SwitchedNetwork(env, nprocs=2, bandwidth=0.0)
    net = SwitchedNetwork(env, nprocs=2, bandwidth=1.0)
    with pytest.raises(ValueError):
        net.transmit(0, 5, 10, ignore)
    with pytest.raises(ValueError):
        net.transmit(0, 1, -1, ignore)


def test_switched_beats_bus_for_all_to_all():
    """The switch removes shared-medium contention: the same all-to-all
    exchange completes much faster than on the bus."""
    def total_time(make_net):
        env = Environment()
        net = make_net(env)
        events = [
            arrival(net, i, j, 1000)
            for i in range(6)
            for j in range(6)
            if i != j
        ]
        env.run(until=AllOf(env, events))
        return env.now

    bus_time = total_time(lambda env: BusNetwork(env, SharedBus(env, bandwidth=1000.0)))
    switch_time = total_time(lambda env: SwitchedNetwork(env, nprocs=6, bandwidth=1000.0))
    assert switch_time < 0.5 * bus_time


# ------------------------------------------------------------- FIFO channels
CONTENDED = {
    "bus": lambda env, latency: BusNetwork(
        env, SharedBus(env, bandwidth=1e6, frame_overhead=1e-4), latency),
    "switched": lambda env, latency: SwitchedNetwork(
        env, nprocs=3, bandwidth=1e6, latency=latency),
}


@pytest.mark.parametrize("kind", CONTENDED)
@settings(max_examples=50, deadline=None)
@given(
    sends=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2),
                  st.sampled_from([0.0, 1e-3, 5e-3]), st.integers(0, 4000)),
        min_size=2, max_size=30),
    seed=st.integers(0, 20),
)
def test_property_channels_are_fifo_under_jitter(kind, sends, seed):
    """Gaps comparable to a jittered 5 ms endpoint latency: a later
    draw is often the shorter one, and must still not overtake."""
    env = Environment()
    net = CONTENDED[kind](env, StochasticLatency(ConstantLatency(5e-3), 1.0, seed=seed))
    sent, delivered = defaultdict(list), defaultdict(list)

    def source(env):
        for k, (src, dst, gap, nbytes) in enumerate(sends):
            if gap:
                yield env.timeout(gap)
            sent[src, dst].append(k)
            net.transmit(src, dst, nbytes,
                         lambda _, k=k, key=(src, dst): delivered[key].append(k))

    env.process(source(env))
    env.run()
    assert delivered == sent


def test_fifo_clamp_is_exact_and_ties_keep_send_order():
    """The second message draws the shorter latency and is held to the
    very float the first clears the endpoint stage on, behind it.
    Counted down from 0.2 that instant would be 0.2 + (0.9 - 0.2) =
    0.8999999999999999, and the second would go first."""
    class Scripted(ConstantLatency):
        def delay(self, src, dst, now):
            return draws.pop(0)

    draws = [0.9, 0.1]
    env = Environment()
    net = BusNetwork(env, SharedBus(env, bandwidth=1e3), Scripted(0.0))
    order = []

    def source(env):
        net.transmit(0, 1, 100, lambda _: order.append(("a", env.now)))
        yield env.timeout(0.2)
        net.transmit(0, 1, 0, lambda _: order.append(("b", env.now)))

    env.process(source(env))
    env.run()
    assert order == [("a", 0.9 + 0.1), ("b", 0.9 + 0.1)]


def test_delay_network_clamp_lands_on_the_predecessor_float():
    """The second message draws the shorter latency and is clamped to
    the first one's arrival.  Counted down from its send time, that
    arrival is 0.0524972421238693, one ulp before the first message's
    0.05249724212386931, and the receiver would see it first."""
    class Scripted(ConstantLatency):
        def delay(self, src, dst, now):
            return draws.pop(0)

    draws = [0.046994462554119994, 0.038437334136460284]
    sent = [0.0055027795697493165, 0.013782183081038516]
    env = Environment()
    net = DelayNetwork(env, Scripted(0.0))
    order = []
    for k, when in enumerate(sent):
        env.run(until=when)
        net.transmit(0, 1, 8, lambda _, k=k: order.append((k, env.now)))
    env.run()
    first = sent[0] + 0.046994462554119994
    assert sent[1] + (first - sent[1]) < first  # the countdown's ulp
    assert order == [(0, first), (1, first)]
