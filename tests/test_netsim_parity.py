"""The event-per-completion bus against the hop-by-hop bus it replaced.

The oracle below is the parent commit's message path, kept as a
reference: every bus transfer is a ``Process`` queuing on a
``Resource``, every message a second ``Process`` around it, and every
mailbox deposit puts an event of its own on the calendar.  It shares
one thing with the code under test, the per-channel FIFO clamp of the
endpoint stage (``Network._endpoint_stage``): parity is about the
mechanism, and the clamp is a deliberate fix both sides get.

Jittered schedules have no exact ties, so everything observable must be
``==``: the order and time of every receive, both bus counters.  On
round-number schedules exact ties are the norm and the two mechanisms
may wake same-instant receivers in a different order, so the claim is
per message — its delivery time — plus the counters, and the
same-instant rule itself is asserted directly, on both.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Event, SimulationError, Store
from repro.engine.sanitizer import sanitizer_from_env
from repro.netsim import (
    BackgroundTraffic,
    BurstyTraffic,
    BusNetwork,
    ConstantLatency,
    DelayNetwork,
    SharedBus,
    StochasticLatency,
)
from repro.netsim.network import Network
from repro.vm import Cluster, uniform_specs


# ------------------------------------------------------------------ the oracle
class ResourceRequest(Event):
    """Event returned by :meth:`Resource.request`; triggers on acquisition."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._queue.append(self)
        resource._trigger()


class Resource:
    """The parent's counted resource with FIFO acquisition (e.g. a
    shared bus).

    Usage::

        req = bus.request()
        yield req
        ... hold the resource ...
        bus.release(req)
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.users: list[ResourceRequest] = []
        self._queue: deque[ResourceRequest] = deque()

    def request(self) -> ResourceRequest:
        """Queue for one unit of the resource."""
        return ResourceRequest(self)

    def release(self, request: ResourceRequest) -> None:
        """Return the unit acquired by ``request``."""
        try:
            self.users.remove(request)
        except ValueError:
            raise SimulationError("releasing a request that does not hold the resource")
        self._trigger()

    def _trigger(self) -> None:
        while self._queue and len(self.users) < self.capacity:
            request = self._queue.popleft()
            self.users.append(request)
            request.succeed()

    def __repr__(self) -> str:
        return f"<Resource in_use={len(self.users)}/{self.capacity} queued={len(self._queue)}>"


def at(env, time):
    """An event processed at the absolute ``time``: the end of an
    endpoint stage, which a timeout counted down from now could miss by
    an ulp."""
    event = env.event()
    event._ok, event._value = True, None
    env.schedule(time, event)
    return event


class OracleBus:
    """The parent's ``SharedBus``: one ``Process`` and one ``Resource``
    request per transfer."""

    def __init__(self, env, bandwidth, frame_overhead=0.0):
        self.env = env
        self.bandwidth = bandwidth
        self.frame_overhead = frame_overhead
        self._medium = Resource(env, capacity=1)
        self.bytes_transferred = 0
        self.busy_time = 0.0

    def transfer(self, nbytes):
        return self.env.process(self._transfer(nbytes), name="bus-transfer")

    def _transfer(self, nbytes):
        request = self._medium.request()
        yield request
        hold = self.frame_overhead + nbytes / self.bandwidth
        start = self.env.now
        try:
            yield self.env.timeout(hold)
        finally:
            self._medium.release(request)
            self.busy_time += self.env.now - start
            self.bytes_transferred += nbytes


class OracleBusNetwork(Network):
    """The parent's ``BusNetwork``: a ``Process`` per message that waits
    out the endpoint stage, then waits on the bus transfer."""

    def __init__(self, env, bus, latency=None):
        super().__init__(env, latency)
        self.bus = bus

    def transmit(self, src, dst, nbytes, deliver):
        self._account(nbytes)
        self.env.process(
            self._deliver(src, dst, nbytes), name=f"xmit-{src}-{dst}"
        ).add_callback(deliver)

    def _deliver(self, src, dst, nbytes):
        ready = self._endpoint_stage(src, dst)
        if ready is not None:
            yield at(self.env, ready)
        yield self.bus.transfer(nbytes)
        return (src, dst, nbytes)


class OracleStore(Store):
    """The parent's mailbox deposit: each put also scheduled a
    ``StorePut`` event that nobody waited on."""

    def put(self, item):
        self.env.event().succeed()
        super().put(item)


# ------------------------------------------------------------------ the harness
class Outcome:
    def __init__(self):
        self.received = []  # (now, rank, tag), in the order receivers woke
        self.delivered_at = {}  # tag -> Message.delivered_at
        self.busy_time = self.bytes_transferred = None


def simulate(nprocs, sends, network_factory, oracle):
    """Run one schedule; ``sends`` is a list of (src, gap, dst, nbytes, reply).

    Rank ``src`` waits ``gap`` after its previous send (0: the same
    instant, as a broadcast does) and sends; a receiver process per
    rank blocks in ``recv`` and answers each ``reply`` message on the
    spot, so some sends are made by a process a delivery woke.
    """
    env = Environment()
    env.sanitizer = sanitizer_from_env()  # event state machine, under CI's flag
    cluster = Cluster(uniform_specs(nprocs), network_factory=network_factory, env=env)
    if oracle:
        for proc in cluster.processors:
            proc.mailbox = OracleStore(env)
    out = Outcome()
    expected = [0] * nprocs
    for src, _, dst, _, reply in sends:
        expected[dst] += 1
        expected[src] += reply

    def sender(proc):
        for tag, (src, gap, dst, nbytes, reply) in enumerate(sends):
            if src == proc.rank:
                if gap > 0:
                    yield env.timeout(gap)
                proc.send(dst, reply, tag=tag, nbytes=nbytes)

    def receiver(proc):
        for _ in range(expected[proc.rank]):
            msg = yield from proc.recv()
            out.received.append((env.now, proc.rank, msg.tag))
            out.delivered_at[msg.tag] = msg.delivered_at
            if msg.payload:
                proc.send(msg.src, False, tag=("re", msg.tag), nbytes=msg.nbytes)

    for proc in cluster.processors:
        env.process(sender(proc))
        env.process(receiver(proc))
    env.run()
    assert len(out.received) == sum(expected)
    bus = getattr(cluster.network, "bus", None)
    if bus is not None:
        out.busy_time, out.bytes_transferred = bus.busy_time, bus.bytes_transferred
    return out


def bus_factory(oracle, bandwidth, overhead, latency, traffic=()):
    """``env -> network``; ``latency`` and ``traffic`` are zero-argument
    makers so each side draws from its own, identically seeded, RNG."""
    bus_cls, net_cls = (OracleBus, OracleBusNetwork) if oracle else (SharedBus, BusNetwork)

    def factory(env):
        bus = bus_cls(env, bandwidth, overhead)
        for make in traffic:
            make().attach(bus, until=25.0)
        return net_cls(env, bus, latency())

    return factory


def both(nprocs, sends, **kw):
    return [simulate(nprocs, sends, bus_factory(oracle, **kw), oracle)
            for oracle in (False, True)]


def schedules(gaps, sizes, reply):
    nprocs = st.shared(st.integers(2, 4), key="nprocs")
    rank = nprocs.flatmap(lambda p: st.integers(0, p - 1))
    return nprocs, st.lists(st.tuples(rank, gaps, rank, sizes, reply), max_size=24)


# ------------------------------------------------------------------ the parity
JITTER_P, JITTER_SENDS = schedules(
    gaps=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
    sizes=st.integers(0, 2000), reply=st.booleans())


@settings(max_examples=60, deadline=None)
@given(nprocs=JITTER_P, sends=JITTER_SENDS, overhead=st.sampled_from([0.0, 0.013]),
       sigma=st.sampled_from([0.0, 0.8]), endpoint=st.sampled_from([0.0, 0.3]),
       seed=st.integers(0, 5), traffic=st.booleans())
def test_jittered_schedules_are_identical(nprocs, sends, overhead, sigma, endpoint,
                                          seed, traffic):
    new, old = both(
        nprocs, sends, bandwidth=1000.0, overhead=overhead,
        latency=lambda: StochasticLatency(ConstantLatency(endpoint), sigma, seed=seed),
        traffic=(
            lambda: BackgroundTraffic(rate=6.0, frame_bytes=120, seed=seed),
            lambda: BurstyTraffic(base_rate=2.0, burst_rate=40.0, mean_off=2.0,
                                  mean_on=0.7, frame_bytes=80, seed=seed + 1),
        ) if traffic else ())
    assert new.received == old.received
    assert new.busy_time == old.busy_time
    assert new.bytes_transferred == old.bytes_transferred


ROUND = [0.0, 0.25, 0.5, 1.0]
ROUND_P, ROUND_SENDS = schedules(
    gaps=st.sampled_from(ROUND), sizes=st.sampled_from([0, 25, 50, 100]),
    reply=st.just(False))


@settings(max_examples=120, deadline=None)
@given(nprocs=ROUND_P, sends=ROUND_SENDS, overhead=st.sampled_from([0.0, 0.25]),
       endpoint=st.sampled_from([0.0, 0.5]))
def test_round_number_schedules_keep_every_delivery_time(nprocs, sends, overhead,
                                                         endpoint):
    """Zero-byte frames, no overhead, no endpoint latency, and requests
    that land exactly on a release instant: ties everywhere."""
    new, old = both(nprocs, sends, bandwidth=100.0, overhead=overhead,
                    latency=lambda: ConstantLatency(endpoint))
    assert new.delivered_at == old.delivered_at
    assert new.busy_time == old.busy_time
    assert new.bytes_transferred == old.bytes_transferred


@settings(max_examples=40, deadline=None)
@given(nprocs=JITTER_P, sends=JITTER_SENDS, sigma=st.sampled_from([0.0, 0.8]),
       seed=st.integers(0, 5))
def test_delay_network_is_identical(nprocs, sends, sigma, seed):
    """No bus here: the oracle side differs only in the mailbox deposit."""
    new, old = [
        simulate(nprocs, sends, lambda env: DelayNetwork(
            env, StochasticLatency(ConstantLatency(0.3), sigma, seed=seed)), oracle)
        for oracle in (False, True)]
    assert new.received == old.received


# ------------------------------------------------------- the same-instant rule
@pytest.mark.parametrize("oracle", [False, True], ids=["bus", "oracle"])
def test_waking_at_a_completion_instant_does_not_see_the_frame(oracle):
    env = Environment()
    cluster = Cluster(
        uniform_specs(2), env=env, network_factory=bus_factory(
            oracle, bandwidth=100.0, overhead=0.0, latency=lambda: ConstantLatency(0.0)))
    seen = []

    def program(proc):
        if proc.rank == 0:
            proc.send(1, None, tag="frame", nbytes=100)  # leaves the wire at 1.0
            return
        yield env.timeout(1.0)
        seen.append((env.now, len(proc.mailbox)))
        msg = yield from proc.recv()
        seen.append((env.now, msg.tag, msg.delivered_at))

    cluster.run(program)
    assert seen == [(1.0, 0), (1.0, "frame", 1.0)]


@pytest.mark.parametrize("oracle", [False, True], ids=["bus", "oracle"])
def test_frames_completing_at_one_instant_deliver_in_request_order(oracle):
    env = Environment()
    cluster = Cluster(
        uniform_specs(3), env=env, network_factory=bus_factory(
            oracle, bandwidth=100.0, overhead=0.0, latency=lambda: ConstantLatency(0.0)))

    def program(proc):
        if proc.rank < 2:
            # Rank 0's frame holds the wire until 1.0; the empty frames
            # behind it take no time, so all four complete at 1.0.
            proc.send(2, None, tag=("first", proc.rank), nbytes=100 * (1 - proc.rank))
            proc.send(2, None, tag=("second", proc.rank), nbytes=0)
            return []
        got = []
        for _ in range(4):
            msg = yield from proc.recv()
            got.append((msg.delivered_at, msg.tag))
        return got

    assert cluster.run(program)[2] == [
        (1.0, ("first", 0)), (1.0, ("second", 0)),
        (1.0, ("first", 1)), (1.0, ("second", 1))]
    assert cluster.network.bus.busy_time == 1.0
