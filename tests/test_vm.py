"""Unit tests for the virtual machine substrate."""

from dataclasses import FrozenInstanceError

import pytest

from repro.netsim import BusNetwork, ConstantLatency, DelayNetwork, SharedBus
from repro.vm import Cluster, ProcessorSpec, linear_gradient_specs, uniform_specs
from repro.vm.message import Message, payload_nbytes

import numpy as np


# ------------------------------------------------------------------- specs
def test_spec_seconds_for():
    s = ProcessorSpec("x", capacity=100.0)
    assert s.seconds_for(250.0) == 2.5


def test_spec_validation():
    with pytest.raises(ValueError):
        ProcessorSpec("x", capacity=0)
    with pytest.raises(ValueError):
        ProcessorSpec("x", capacity=100).seconds_for(-1)


def test_linear_gradient_specs_paper_shape():
    specs = linear_gradient_specs(p=16, fastest=120e6, ratio=10.0)
    caps = [s.capacity for s in specs]
    assert caps[0] == pytest.approx(120e6)
    assert caps[-1] == pytest.approx(12e6)
    # linear: constant differences
    diffs = [a - b for a, b in zip(caps, caps[1:])]
    assert all(d == pytest.approx(diffs[0]) for d in diffs)


def test_linear_gradient_single_processor():
    specs = linear_gradient_specs(p=1, fastest=100.0)
    assert len(specs) == 1
    assert specs[0].capacity == 100.0


def test_linear_gradient_validation():
    with pytest.raises(ValueError):
        linear_gradient_specs(p=0)
    with pytest.raises(ValueError):
        linear_gradient_specs(p=4, ratio=0.5)


def test_uniform_specs():
    specs = uniform_specs(3, capacity=5.0)
    assert [s.capacity for s in specs] == [5.0, 5.0, 5.0]
    with pytest.raises(ValueError):
        uniform_specs(0)


# ---------------------------------------------------------------- messages
def test_payload_nbytes_numpy():
    arr = np.zeros(10, dtype=np.float64)
    assert payload_nbytes(arr) == 80


def test_payload_nbytes_containers():
    assert payload_nbytes([np.zeros(2), np.zeros(3)]) == 16 + 24 + 16
    assert payload_nbytes({"a": 1.0}) > 0
    assert payload_nbytes(None) == 8
    assert payload_nbytes(b"xyz") == 3


def test_message_latency_and_matching():
    m = Message(src=0, dst=1, tag="t", payload=None, nbytes=8, sent_at=1.0)
    assert m.delivered_at is None
    m.mark_delivered(3.0)
    assert m.delivered_at - m.sent_at == 2.0
    assert m.matches()
    assert m.matches(src=0, tag="t")
    assert not m.matches(src=1)
    assert not m.matches(tag="other")


def test_message_is_frozen_and_delivered_once():
    m = Message(src=0, dst=1, tag="t", payload=None, nbytes=8, sent_at=1.0)
    with pytest.raises(FrozenInstanceError):
        m.payload = "swapped"
    with pytest.raises(FrozenInstanceError):
        m.delivered_at = 3.0
    with pytest.raises(ValueError):
        m.mark_delivered(0.5)  # before the send
    m.mark_delivered(2.0)
    with pytest.raises(ValueError):
        m.mark_delivered(4.0)  # double delivery


# ----------------------------------------------------------------- cluster
def test_cluster_compute_time_scales_with_capacity():
    cluster = Cluster([ProcessorSpec("fast", 100.0), ProcessorSpec("slow", 10.0)])

    def program(proc):
        yield proc.env.timeout(proc.seconds_for(100.0))
        return proc.env.now

    results = cluster.run(program)
    assert results == [pytest.approx(1.0), pytest.approx(10.0)]


def test_send_recv_roundtrip_with_latency():
    cluster = Cluster(
        uniform_specs(2, capacity=1e6),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(0.5)),
    )

    def program(proc):
        if proc.rank == 0:
            proc.send(1, {"x": 42}, tag="data")
            return None
        msg = yield from proc.recv(src=0, tag="data")
        return (proc.env.now, msg.payload["x"], msg.delivered_at - msg.sent_at)

    results = cluster.run(program)
    assert results[1] == (0.5, 42, 0.5)


def test_recv_traces_comm_time():
    cluster = Cluster(
        uniform_specs(2, capacity=1e6),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(2.0)),
    )

    def program(proc):
        if proc.rank == 0:
            proc.send(1, "hi")
        else:
            yield from proc.recv(src=0)
        if False:
            yield  # make rank 0 a generator too

    cluster.run(program)
    assert cluster.processors[1].trace.total("comm") == pytest.approx(2.0)


def test_selective_recv_by_tag_order_independent():
    cluster = Cluster(uniform_specs(2, capacity=1e6))

    def program(proc):
        if proc.rank == 0:
            proc.send(1, "first", tag=("vars", 0))
            proc.send(1, "second", tag=("vars", 1))
            if False:
                yield
            return None
        # receive iteration 1 first even though 0 arrived earlier
        m1 = yield from proc.recv(src=0, tag=("vars", 1))
        m0 = yield from proc.recv(src=0, tag=("vars", 0))
        return (m1.payload, m0.payload)

    results = cluster.run(program)
    assert results[1] == ("second", "first")


def test_send_invalid_rank_rejected():
    cluster = Cluster(uniform_specs(2, capacity=1e6))

    def program(proc):
        if proc.rank == 0:
            with pytest.raises(ValueError):
                proc.send(5, "x")
        if False:
            yield
        return None

    cluster.run(program)


def test_cluster_run_until_timeout():
    cluster = Cluster(uniform_specs(1, capacity=1.0))

    def program(proc):
        yield proc.env.timeout(proc.seconds_for(100.0))  # needs 100s

    with pytest.raises(TimeoutError):
        cluster.run(program, until=5.0)


def test_cluster_bus_network_integration():
    def make_net(env):
        return BusNetwork(env, SharedBus(env, bandwidth=100.0))

    cluster = Cluster(uniform_specs(3, capacity=1e9), network_factory=make_net)

    def program(proc):
        if proc.rank == 0:
            proc.send(1, None, nbytes=100, tag="x")  # 1s wire
            proc.send(2, None, nbytes=100, tag="x")  # queues: arrives at 2s
            if False:
                yield
            return None
        msg = yield from proc.recv(src=0, tag="x")
        return proc.env.now

    results = cluster.run(program)
    assert results[1] == pytest.approx(1.0)
    assert results[2] == pytest.approx(2.0)


def test_cluster_validation():
    with pytest.raises(ValueError):
        Cluster([])


def test_cluster_accessors():
    cluster = Cluster(uniform_specs(3, capacity=7.0))
    assert cluster.size == 3
    assert cluster.capacities() == [7.0, 7.0, 7.0]
    assert cluster.processors[1].rank == 1
