"""Integration tests for the speculative protocol on the DES backend:
correctness invariants.

The strongest invariants:

* FW = 0 reproduces the serial recurrence exactly (it is just the
  blocking algorithm of Fig. 1).
* θ = 0 forces every imperfect speculation to be corrected, so the
  final state equals the serial recurrence *for any forward window*.
* A perfect speculator (linear extrapolation on linear dynamics) is
  always accepted with zero error, and the result again equals the
  serial recurrence.
* Speculation can only change results within the tolerance allowed by
  θ; the run must never deadlock or drop messages.
"""

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.core import LinearExtrapolation, ZeroOrderHold
from repro.netsim import ConstantLatency, DelayNetwork
from repro.vm import Cluster, uniform_specs

from tests.toy_programs import CoupledIncrement, RandomDrift


def make_cluster(p, latency=0.0, capacity=1000.0):
    return Cluster(
        uniform_specs(p, capacity=capacity),
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(latency)),
    )


def assert_blocks_equal(result_blocks, reference, atol=0.0):
    for rank, ref in reference.items():
        np.testing.assert_allclose(result_blocks[rank], ref, atol=atol, rtol=0)


# ------------------------------------------------------ exactness invariants
def test_fw0_matches_serial_reference():
    prog = CoupledIncrement(nprocs=3, iterations=5, coupling=0.2)
    result = run(RunConfig(prog, fw=0, cluster=make_cluster(3, latency=0.1)))
    assert_blocks_equal(result.results, prog.reference_run())


def test_fw0_makes_no_speculations():
    prog = CoupledIncrement(nprocs=3, iterations=4)
    result = run(RunConfig(prog, fw=0, cluster=make_cluster(3, latency=0.1)))
    assert all(s.spec_made == 0 for s in result.stats)
    assert all(s.checks == 0 for s in result.stats)
    assert all(s.recomputes == 0 for s in result.stats)


@pytest.mark.parametrize("fw", [1, 2, 3])
def test_theta_zero_always_corrects_to_exact_result(fw):
    """With θ=0 every erroneous speculation is repaired: exact results."""
    prog = RandomDrift(nprocs=3, iterations=6, coupling=0.3, threshold=0.0)
    result = run(RunConfig(prog, fw=fw, cluster=make_cluster(3, latency=0.5)))
    assert_blocks_equal(result.results, prog.reference_run(), atol=1e-9)


@pytest.mark.parametrize("fw", [1, 2])
def test_perfect_speculator_accepted_and_exact(fw):
    """Constant state + zero-order hold: all speculations exact."""
    prog = CoupledIncrement(
        nprocs=3,
        iterations=5,
        coupling=0.0,
        rates=[0.0, 0.0, 0.0],
        threshold=0.0,
        speculator=ZeroOrderHold(),
    )
    result = run(RunConfig(prog, fw=fw, cluster=make_cluster(3, latency=0.5)))
    assert_blocks_equal(result.results, prog.reference_run(), atol=0.0)
    total_rejected = sum(s.spec_rejected for s in result.stats)
    assert total_rejected == 0
    assert sum(s.recomputes for s in result.stats) == 0


def test_linear_speculator_on_linear_dynamics_mostly_accepted():
    """After warm-up, linear extrapolation is exact on linear trajectories."""
    prog = CoupledIncrement(
        nprocs=2,
        iterations=10,
        coupling=0.0,
        rates=[1.0, 2.0],
        threshold=1e-9,
        speculator=LinearExtrapolation(),
    )
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(2, latency=0.5)))
    assert_blocks_equal(result.results, prog.reference_run(), atol=1e-9)
    # Only the first iteration (single-point history, hold fallback)
    # can be rejected; everything afterwards is exact.
    assert sum(s.spec_rejected for s in result.stats) <= 2
    accepted = sum(s.spec_accepted for s in result.stats)
    assert accepted >= 2 * (prog.iterations - 2)


def test_speculation_within_threshold_bounded_deviation():
    """Accepted speculations introduce bounded, nonzero deviation."""
    prog = CoupledIncrement(
        nprocs=2,
        iterations=5,
        coupling=0.0,
        rates=[0.1, 0.1],
        threshold=1e9,  # accept everything
        speculator=ZeroOrderHold(),
    )
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(2, latency=0.5)))
    ref = prog.reference_run()
    for rank in range(2):
        # ZOH mispredicts each step by `rate`; deviation accumulates but
        # stays O(T * rate) -- here inputs only shift means, coupling 0,
        # so own block is exact; just assert the run completed sanely.
        assert np.all(np.isfinite(result.results[rank]))
    assert sum(s.spec_rejected for s in result.stats) == 0


# ----------------------------------------------------------- timing behaviour
def test_speculation_masks_latency():
    """With comm delay >> compute, FW=1 must beat FW=0 (Fig. 2b vs 2a)."""
    def go(fw):
        prog = CoupledIncrement(
            nprocs=2, iterations=8, coupling=0.0, rates=[0.0, 0.0],
            threshold=0.0, speculator=ZeroOrderHold(), ops_per_compute=1000.0,
        )
        cluster = make_cluster(2, latency=1.0, capacity=1000.0)  # comp 1s, comm 1s
        return run(RunConfig(prog, fw=fw, cluster=cluster))

    t0 = go(0).wall_seconds
    t1 = go(1).wall_seconds
    assert t1 < t0
    # With comm <= compute, FW=1 can mask nearly all of the delay:
    # per-iteration cost drops from comp+comm toward comp+check.
    assert t1 < 0.75 * t0


def test_fw2_masks_more_than_fw1_when_comm_dominates():
    def go(fw):
        prog = CoupledIncrement(
            nprocs=2, iterations=10, coupling=0.0, rates=[0.0, 0.0],
            threshold=0.0, speculator=ZeroOrderHold(), ops_per_compute=1000.0,
        )
        cluster = make_cluster(2, latency=2.5, capacity=1000.0)  # comp 1s, comm 2.5s
        return run(RunConfig(prog, fw=fw, cluster=cluster))

    t1 = go(1).wall_seconds
    t2 = go(2).wall_seconds
    assert t2 < t1


def test_bad_speculation_costs_more_than_blocking():
    """All-rejected speculation pays recompute penalty (Fig. 2c)."""
    def go(fw):
        prog = RandomDrift(
            nprocs=2, iterations=6, coupling=0.0,
            threshold=0.0, speculator=ZeroOrderHold(), ops_per_compute=1000.0,
        )
        cluster = make_cluster(2, latency=0.01, capacity=1000.0)  # comm ~ free
        return run(RunConfig(prog, fw=fw, cluster=cluster))

    t0 = go(0).wall_seconds
    t1 = go(1).wall_seconds
    # With negligible communication to mask, rejected speculations can
    # only add overhead.
    assert t1 > t0


def test_comm_phase_shrinks_with_speculation():
    def go(fw):
        prog = CoupledIncrement(
            nprocs=2, iterations=8, coupling=0.0, rates=[0.0, 0.0],
            threshold=0.0, speculator=ZeroOrderHold(), ops_per_compute=1000.0,
        )
        cluster = make_cluster(2, latency=5.0, capacity=1000.0)
        return run(RunConfig(prog, fw=fw, cluster=cluster))

    b0 = go(0).breakdown()
    b1 = go(1).breakdown()
    assert b1["comm"] < b0["comm"]
    assert b1["spec"] > 0
    assert b1["check"] > 0
    assert b0["spec"] == 0


# ------------------------------------------------------------- bookkeeping
def test_stats_counting_consistency():
    prog = RandomDrift(nprocs=3, iterations=6, threshold=0.0)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(3, latency=0.5)))
    for s in result.stats:
        assert s.checks == s.spec_accepted + s.spec_rejected
        assert s.iterations == prog.iterations
        # every non-cascade speculation gets checked eventually
        assert s.checks > 0
        assert s.messages_sent == (prog.iterations - 1) * (prog.nprocs - 1)


def test_no_tainted_sends_with_fw1_or_fw0():
    """Fig. 3 sends X_j(t) only after iteration t-1 is verified, so with
    FW <= 1 every broadcast value is final (corrections already applied)."""
    prog = RandomDrift(nprocs=2, iterations=6, threshold=0.0)
    for fw in (0, 1):
        result = run(RunConfig(prog, fw=fw, cluster=make_cluster(2, latency=0.5)))
        assert sum(s.tainted_sends for s in result.stats) == 0


def test_tainted_sends_possible_with_fw2():
    """With FW=2 a processor may broadcast a block whose chain consumed
    a still-unverified speculation; the counter must notice."""
    prog = RandomDrift(nprocs=2, iterations=8, threshold=0.0,
                       ops_per_compute=1000.0)
    cluster = make_cluster(2, latency=3.0, capacity=1000.0)  # comm 3x compute
    result = run(RunConfig(prog, fw=2, cluster=cluster))
    assert sum(s.tainted_sends for s in result.stats) > 0


def test_single_processor_trivial_run():
    prog = CoupledIncrement(nprocs=1, iterations=4, rates=[1.0])
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(1)))
    assert_blocks_equal(result.results, prog.reference_run())
    assert result.stats[0].spec_made == 0
    assert result.wall_seconds > 0


def test_driver_validates_inputs():
    prog = CoupledIncrement(nprocs=2, iterations=2)
    with pytest.raises(ValueError, match="cluster has 3 processors"):
        RunConfig(prog, fw=1, cluster=make_cluster(3))
    with pytest.raises(ValueError, match="fw must be >= 0"):
        RunConfig(prog, fw=-1, cluster=make_cluster(2))


def test_run_result_metadata():
    prog = CoupledIncrement(nprocs=2, iterations=3)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(2, latency=0.1)))
    assert result.nprocs == 2
    assert result.fw == 1
    assert result.iterations == 3
    assert result.time_per_iteration == pytest.approx(result.wall_seconds / 3)
    assert len(result.capacities) == 2


def test_recompute_fraction_zero_when_perfect():
    prog = CoupledIncrement(
        nprocs=2, iterations=5, coupling=0.0, rates=[0.0, 0.0],
        threshold=0.0, speculator=ZeroOrderHold(),
    )
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(2, latency=0.5)))
    assert sum(s.recomputes for s in result.stats) == 0
    assert result.rejection_rate == 0.0


def test_recompute_fraction_positive_when_always_wrong():
    prog = RandomDrift(nprocs=2, iterations=5, threshold=0.0)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(2, latency=0.5)))
    assert sum(s.recomputes for s in result.stats) > 0
    assert result.rejection_rate == 1.0


def test_determinism_same_config_same_everything():
    def once():
        prog = RandomDrift(nprocs=3, iterations=5, threshold=0.0)
        r = run(RunConfig(prog, fw=2, cluster=make_cluster(3, latency=0.3)))
        return (
            r.wall_seconds,
            {k: v.tolist() for k, v in r.results.items()},
            [s.spec_made for s in r.stats],
        )

    assert once() == once()


def test_heterogeneous_cluster_slowest_sets_pace():
    from repro.vm import ProcessorSpec

    prog = CoupledIncrement(nprocs=2, iterations=4, ops_per_compute=1000.0)
    cluster = Cluster(
        [ProcessorSpec("fast", 2000.0), ProcessorSpec("slow", 500.0)],
        network_factory=lambda env: DelayNetwork(env, ConstantLatency(0.01)),
    )
    result = run(RunConfig(prog, fw=0, cluster=cluster))
    # slow rank needs 2s per iteration; makespan >= 4 iterations * 2s
    assert result.wall_seconds >= 8.0
    assert_blocks_equal(result.results, prog.reference_run())


@pytest.mark.parametrize("p", [2, 4, 7])
def test_various_cluster_sizes(p):
    prog = CoupledIncrement(nprocs=p, iterations=4, coupling=0.1,
                            rates=list(range(p)), threshold=0.0)
    result = run(RunConfig(prog, fw=1, cluster=make_cluster(p, latency=0.2)))
    assert_blocks_equal(result.results, prog.reference_run(), atol=1e-9)


def test_fw_larger_than_iterations_is_safe():
    prog = RandomDrift(nprocs=2, iterations=3, threshold=0.0)
    result = run(RunConfig(prog, fw=10, cluster=make_cluster(2, latency=0.5)))
    assert_blocks_equal(result.results, prog.reference_run(), atol=1e-9)


@pytest.mark.parametrize("fw", [1, 2, 3])
def test_jittered_endpoint_latency_keeps_channels_fifo(fw):
    """A 0.1 ms compute against a jittered 5 ms endpoint latency: the
    next iteration's block often draws the shorter latency.  Before the
    networks clamped each channel, it overtook its predecessor on the
    wire and the run died with ``OutOfOrderArrival``."""
    from repro.harness.toys import ConstantProgram
    from repro.platforms import wustl_1994

    prog = ConstantProgram(nprocs=4, iterations=40, block_size=8, ops_per_compute=2e3)
    result = run(RunConfig(prog, fw=fw,
                           cluster=wustl_1994(p=4, jitter_sigma=0.8, seed=1).cluster()))
    for rank in range(4):
        np.testing.assert_array_equal(result.results[rank], prog.initial_block(rank))


# ------------------------------------------- what a long run keeps and reads
def _watch_engines(monkeypatch):
    """The engines the run builds (the report carries none)."""
    from repro import api

    built = []
    build = api.rank_engine

    def watched(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(api, "rank_engine", watched)
    return built


@pytest.mark.parametrize("fw", [1, 3])
def test_bookkeeping_is_bounded_by_the_window_not_the_run(fw, monkeypatch):
    """Inputs, actual blocks, arrival counts and the own chain are kept
    only for the iterations a correction can still reach."""
    from repro.engine.core import run_ahead_bound

    engines = _watch_engines(monkeypatch)
    prog = RandomDrift(nprocs=3, iterations=40, coupling=0.3, threshold=0.0)
    run(RunConfig(prog, fw=fw, cluster=make_cluster(3, latency=0.5)))
    bound = run_ahead_bound(fw) + 2
    for engine in engines:
        assert len(engine.inputs_used) <= bound
        assert len({t for _src, t in engine.actual}) <= bound
        assert len(engine.missing) <= bound
        assert len(engine.chain) <= bound


def test_each_speculation_reads_its_ring_once(monkeypatch):
    """A history ring is read once per guess made from it, cascades
    included: never once per peer per cascade step."""
    from repro.engine.ring import HistoryRing

    reads = []
    series = HistoryRing.series

    def counted(self):
        reads.append(self)
        return series(self)

    monkeypatch.setattr(HistoryRing, "series", counted)
    prog = RandomDrift(nprocs=3, iterations=12, coupling=0.3, threshold=0.0)
    result = run(RunConfig(prog, fw=2, cluster=make_cluster(3, latency=2.0)))
    # More recomputes than rejections: cascades recomputed later blocks.
    assert sum(s.recomputes - s.spec_rejected for s in result.stats) > 0
    assert len(reads) == sum(s.spec_made for s in result.stats)


# ------------------------------------------- a reordered arrival heals its gap
class _GapWatch:
    """The sanitizer seat's hooks the engine calls, recorded."""

    def __init__(self):
        self.healed = []

    def on_ring_occupancy(self, rank, src, size, capacity):
        assert size <= capacity

    def on_inbox_depth(self, rank, src, depth, bound):
        assert depth <= bound

    def on_gap_healed(self, rank, src, seq):
        self.healed.append((rank, src, seq))


def test_an_arrival_ahead_of_its_seq_is_parked_until_the_gap_heals():
    """Rank 0 speculates X_1(1), then receives seq 1 (X_1(2)) before
    seq 0 (X_1(1)).  Seq 1 is parked and a retransmit requested; seq 0
    is accepted and verified, seq 1 replayed after it, and the gap
    closes with ``on_gap_healed``."""
    from repro.engine.core import SpecEngine, topology
    from repro.engine.events import Arrival, Charge, Recv, Retransmit, TryRecv, Verified

    prog = CoupledIncrement(nprocs=2, iterations=3)
    needed, audience = topology(prog)
    watch = _GapWatch()
    engine = SpecEngine(prog, 0, needed[0], audience[0], fw=1, sanitizer=watch)
    accepted = []
    accept = engine._accept
    engine._accept = lambda arrival: accepted.append(arrival.seq) or accept(arrival)
    blocks = [prog.initial_block(1) + step for step in range(3)]
    pending = [Arrival(1, 2, blocks[2], seq=1), Arrival(1, 1, blocks[1], seq=0)]

    effects = []
    gen = engine.run()
    response = None
    while True:
        try:
            effect = gen.send(response)
        except StopIteration:
            break
        effects.append(type(effect))
        response = None
        if isinstance(effect, TryRecv) and engine.frontier >= 2 and pending:
            response = pending.pop(0)
        elif isinstance(effect, Recv):
            response = pending.pop(0)
        elif isinstance(effect, Retransmit):
            assert (effect.peer, effect.seq, effect.attempt) == (1, 0, 1)
            assert accepted == []  # seq 1 is parked, not accepted
        assert not isinstance(effect, Charge) or effect.ops >= 0

    assert accepted == [0, 1]
    assert watch.healed == [(0, 1, 0)]
    assert engine.history[1].times() == [0, 1, 2]
    assert engine.verified_upto == 2
    assert not engine._gaps and 1 not in engine._recv_stash
    assert engine._recv_next[1] == 2
    assert effects.count(Retransmit) == 1 and effects.count(Verified) == 1
    s = engine.stats
    assert (s.spec_made, s.checks, s.retransmits, s.messages_received) == (1, 1, 1, 2)
