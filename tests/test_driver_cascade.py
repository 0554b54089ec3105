"""Tests for the cascade policy and deeper forward-window behaviour."""

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.netsim import ConstantLatency, DelayNetwork
from repro.partition import largest_remainder_round
from repro.vm import Cluster, uniform_specs

from tests.toy_programs import CoupledIncrement, RandomDrift


def make_cluster(p, latency=0.0, capacity=1000.0):
    return Cluster(
        uniform_specs(p, capacity=capacity),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(latency)),
    )


def test_cascade_policy_validation():
    prog = CoupledIncrement(nprocs=2, iterations=2)
    with pytest.raises(ValueError):
        RunConfig(prog, fw=1, cascade="sideways", cluster=make_cluster(2))


def test_cascade_none_equals_recompute_for_fw1():
    """With FW=1 the cascade range is always empty, so the policies
    coincide exactly."""
    def go(cascade):
        prog = RandomDrift(nprocs=3, iterations=6, threshold=0.0)
        r = run(RunConfig(prog, fw=1, cascade=cascade,
                          cluster=make_cluster(3, latency=0.5)))
        return r.wall_seconds, {k: v.tolist() for k, v in r.results.items()}

    assert go("none") == go("recompute")


def test_cascade_recompute_more_expensive_under_fw2():
    """When FW=2 actually runs ahead and rejections happen, cascading
    full recomputes must cost at least as much virtual time."""
    def go(cascade):
        prog = RandomDrift(nprocs=2, iterations=10, threshold=0.0,
                           ops_per_compute=1000.0)
        cluster = make_cluster(2, latency=2.5, capacity=1000.0)
        return run(RunConfig(prog, fw=2, cascade=cascade, cluster=cluster))

    r_none = go("none")
    r_cascade = go("recompute")
    assert r_cascade.wall_seconds >= r_none.wall_seconds - 1e-9
    # The cascading run redoes more block-iterations.
    assert (
        sum(s.recomputes for s in r_cascade.stats)
        >= sum(s.recomputes for s in r_none.stats)
    )


def test_cascade_recompute_fw2_closer_to_reference():
    """Cascading repairs the local chain, so the final state deviates
    (weakly) less from the serial recurrence than no-cascade."""
    def deviation(cascade):
        prog = CoupledIncrement(
            nprocs=2, iterations=8, coupling=0.4, rates=[1.0, -1.0],
            threshold=0.0, ops_per_compute=1000.0,
        )
        cluster = make_cluster(2, latency=2.5, capacity=1000.0)
        r = run(RunConfig(prog, fw=2, cascade=cascade, cluster=cluster))
        ref = prog.reference_run()
        return max(
            float(np.max(np.abs(r.results[j] - ref[j]))) for j in range(2)
        )

    assert deviation("recompute") <= deviation("none") + 1e-12


def test_driver_needed_validation():
    class BadNeeded(CoupledIncrement):
        def needed(self, rank):
            return frozenset({rank})  # self-dependency: invalid

    prog = BadNeeded(nprocs=2, iterations=2)
    with pytest.raises(ValueError, match="invalid needed set"):
        run(RunConfig(prog, fw=1, cluster=make_cluster(2)))


def test_largest_remainder_round():
    assert largest_remainder_round([1.5, 1.5]) == [2, 1]
    assert largest_remainder_round([2.0, 3.0]) == [2, 3]
    assert sum(largest_remainder_round([0.3, 0.3, 0.4])) == 1
    with pytest.raises(ValueError):
        largest_remainder_round([])
    with pytest.raises(ValueError):
        largest_remainder_round([-1.0, 2.0])
    with pytest.raises(ValueError):
        largest_remainder_round([0.5, 0.7])  # sums to 1.2: not integral


def test_send_ops_charged_to_sender():
    """A program declaring per-message pack cost slows its sender by
    exactly audience * send_ops / capacity per iteration."""

    class Packing(CoupledIncrement):
        def send_ops(self, rank):
            return 500.0  # half a compute phase per message

    def makespan(program_cls):
        prog = program_cls(
            nprocs=3, iterations=5, coupling=0.0, rates=[0.0, 0.0, 0.0],
            threshold=0.0, ops_per_compute=1000.0,
        )
        return run(RunConfig(prog, fw=0,
                             cluster=make_cluster(3, latency=0.0))).wall_seconds

    free = makespan(CoupledIncrement)
    packed = makespan(Packing)
    # 4 sending iterations x 2 messages x 500 ops / 1000 ops/s = 4 s.
    assert packed == pytest.approx(free + 4.0)
