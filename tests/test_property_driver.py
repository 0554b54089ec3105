"""Property-based tests over the speculative driver's configuration space."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import RunConfig, run
from repro.netsim import ConstantLatency, DelayNetwork
from repro.trace import PhaseTrace, render_gantt
from repro.vm import Cluster, uniform_specs

from tests.toy_programs import CoupledIncrement, RandomDrift


def make_cluster(p, latency):
    return Cluster(
        uniform_specs(p, capacity=1000.0),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(latency)),
    )


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(2, 4),
    iterations=st.integers(1, 6),
    coupling=st.floats(0.0, 0.5),
    latency=st.floats(0.0, 3.0),
    fw=st.integers(0, 1),
)
def test_property_theta_zero_fw_le_1_exact(p, iterations, coupling, latency, fw):
    """For any configuration with FW <= 1 and theta = 0, the parallel
    speculative run equals the serial recurrence exactly."""
    prog = RandomDrift(
        nprocs=p, iterations=iterations, coupling=coupling,
        rates=list(range(p)), threshold=0.0, ops_per_compute=1000.0,
    )
    result = run(RunConfig(prog, fw=fw, cluster=make_cluster(p, latency)))
    ref = prog.reference_run()
    for rank in range(p):
        np.testing.assert_allclose(result.results[rank], ref[rank], atol=1e-9)
    # Bookkeeping invariants hold for every configuration.
    for s in result.stats:
        assert s.checks == s.spec_accepted + s.spec_rejected
        assert s.iterations == iterations
        assert s.tainted_sends == 0


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(2, 3),
    iterations=st.integers(2, 6),
    latency=st.floats(0.1, 4.0),
    fw=st.integers(2, 4),
)
def test_property_deep_windows_finite_and_accounted(p, iterations, latency, fw):
    """FW >= 2 runs complete, stay finite, and never lose messages."""
    prog = CoupledIncrement(
        nprocs=p, iterations=iterations, coupling=0.2,
        rates=list(range(p)), threshold=0.0, ops_per_compute=1000.0,
    )
    result = run(RunConfig(prog, fw=fw, cascade="none",
                           cluster=make_cluster(p, latency)))
    for rank in range(p):
        assert np.all(np.isfinite(result.results[rank]))
    total_sent = sum(s.messages_sent for s in result.stats)
    total_recv = sum(s.messages_received for s in result.stats)
    assert total_sent == p * (p - 1) * (iterations - 1)
    assert total_recv == total_sent


@settings(max_examples=30, deadline=None)
@given(
    latency=st.floats(0.0, 2.0),
    iterations=st.integers(2, 8),
)
def test_property_speculation_never_slower_when_perfect_and_free_errors(latency, iterations):
    """Perfect speculation: FW=1 makespan <= FW=0 makespan + overheads."""
    def go(fw):
        prog = CoupledIncrement(
            nprocs=2, iterations=iterations, coupling=0.0, rates=[0.0, 0.0],
            threshold=0.0, ops_per_compute=1000.0,
        )
        return run(RunConfig(prog, fw=fw, cluster=make_cluster(2, latency)))

    t0 = go(0).wall_seconds
    r1 = go(1)
    # Overhead bound: spec+check ops per iteration per remote block.
    overhead = iterations * (12.0 * 4 + 24.0 * 4) / 1000.0
    assert r1.wall_seconds <= t0 + overhead + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    spans=st.lists(
        st.tuples(
            st.sampled_from(["compute", "comm", "spec", "check", "correct", "idle"]),
            st.floats(0.0, 10.0),
            st.floats(0.0, 10.0),
        ),
        max_size=20,
    ),
    width=st.integers(1, 120),
)
# A denormal span: t_end / width underflows to 0.0 (was ZeroDivisionError).
@example(spans=[("compute", 0.0, 5e-324)], width=2)
def test_property_gantt_never_crashes(spans, width):
    trace = PhaseTrace(rank=0)
    for phase, a, b in spans:
        lo, hi = min(a, b), max(a, b)
        trace.record(phase, lo, hi)
    out = render_gantt([trace], width=width)
    assert isinstance(out, str)
    assert out.splitlines()[0].startswith("P0")
