"""One repair per iteration: ``correct`` repairs X(t+1) for all of an
iteration's rejections at once, and ``correct_ops`` prices each one.

* Batch = fold: for every application that overrides ``correct`` (and
  the default), one call over a list of rejections is bit for bit the
  one-rejection calls applied in order, and each rejection's price is
  the one it had when each rejection was repaired on its own.
* The engine runs a repair inside a verification, before that
  verification's ``Charge``, so wall-clock transports book it as check
  or correct time; at FW=1 it runs once per (rank, iteration) that saw
  a rejection.
* A repair still owed to a block that a cascade recomputes is never
  applied on top of the recomputed block.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api import RunConfig, run
from repro.apps import HeatEquation1D, NBodyProgram, WaveEquation1D
from repro.engine.core import build_engine, topology
from repro.engine.events import Arrival, Charge, Recv
from repro.engine.observer import RankObserver
from repro.nbody import ParticleSystem
from repro.nbody.forces import PAIR_FLOPS
from repro.nbody.speculation import pairwise_error_ratios
from repro.netsim import ConstantLatency, DelayNetwork
from repro.policy import CostWindow
from repro.vm import Cluster, uniform_specs
from tests.observer_spy import spy_on
from tests.toy_programs import CoupledIncrement, RandomDrift

THETA = 0.01


# ------------------------------------------------------------ batch = fold
def nbody(rng, incremental, n_own):
    """Three ranks, rank 0 owning ``n_own`` particles."""
    n = n_own + 6
    system = ParticleSystem(
        rng.uniform(0.5, 1.5, n), rng.uniform(-1.0, 1.0, (n, 3)),
        rng.uniform(-0.1, 0.1, (n, 3)), softening=0.1,
    )
    return NBodyProgram(system, [n_own, 2, 4], 1, threshold=THETA,
                        incremental_correction=incremental)


def perturbed(rng, prog, k, scale):
    """A wrong guess at ``k``'s block (``scale`` 0: exactly right)."""
    actual = prog.initial_block(k)
    return actual + scale * rng.normal(size=actual.shape)


#: name -> (builder(rng) -> program, the rank whose block is repaired).
APPS = {
    "nbody-incremental": (lambda rng, n_own: nbody(rng, True, n_own), 0),
    "nbody-recompute": (lambda rng, n_own: nbody(rng, False, n_own), 0),
    "heat": (lambda rng, _: HeatEquation1D(
        rng.uniform(0.0, 1.0, 12), [1.0] * 3, 1, r=0.25, boundary=(1.0, 0.0)), 1),
    "wave": (lambda rng, _: WaveEquation1D(
        rng.uniform(-1.0, 1.0, 12), [1.0] * 3, 1, courant=0.9), 1),
    "default": (lambda rng, _: CoupledIncrement(3, 1, coupling=0.3), 1),
}


def old_ops(prog, rank, k, speculated, actual):
    """What one rejection cost before repairs were batched."""
    if isinstance(prog, NBodyProgram) and prog.incremental_correction:
        own = prog.initial_block(rank)
        bad = pairwise_error_ratios(speculated[:, :3], actual[:, :3], own[:, :3]) > THETA
        n_bad = int(np.count_nonzero(bad))
        return 2.0 * PAIR_FLOPS * n_bad * len(own) + 6.0 * len(own) if n_bad else 0.0
    if isinstance(prog, (HeatEquation1D, WaveEquation1D)):
        return 4.0
    return prog.compute_ops(rank)


@settings(max_examples=60, deadline=None)
@given(
    app=st.sampled_from(sorted(APPS)),
    seed=st.integers(0, 2**32 - 1),
    n_own=st.sampled_from([1, 2, 5]),
    order=st.permutations([0, 1]),
    count=st.integers(1, 2),
    scales=st.tuples(*[st.sampled_from([0.0, 1e-3, 0.05, 0.5])] * 2),
    checked=st.booleans(),
)
def test_one_call_over_the_rejections_is_the_calls_folded_in_order(
    app, seed, n_own, order, count, scales, checked
):
    build, rank = APPS[app]

    def program():
        return build(np.random.default_rng(seed), n_own)

    batch_prog, fold_prog = program(), program()
    rng = np.random.default_rng(seed + 1)
    peers = sorted(batch_prog.needed(rank))
    inputs = {r: batch_prog.initial_block(r) for r in range(batch_prog.nprocs)}
    rejected = []
    for i in order[:count]:
        k = peers[i]
        rejected.append((k, perturbed(rng, batch_prog, k, scales[i]), inputs[k]))
    spec_inputs = dict(inputs)
    for k, speculated, _ in rejected:
        spec_inputs[k] = speculated
    next_block = program().compute(rank, spec_inputs, 0)

    for prog in (batch_prog, fold_prog):
        if checked:  # the N-body checks hand their masks to the repair
            for k, speculated, actual in rejected:
                prog.check(rank, k, speculated, actual, inputs[rank])
        for k, speculated, actual in rejected:
            ops = prog.correct_ops(rank, inputs, k, speculated, actual, 0)
            assert ops == old_ops(prog, rank, k, speculated, actual)
    batch = batch_prog.correct(rank, next_block, inputs, rejected, 0)
    fold = next_block
    for one in rejected:
        fold = fold_prog.correct(rank, fold, inputs, [one], 0)
    assert np.array_equal(batch, fold)
    for prog in (batch_prog, fold_prog):
        assert getattr(prog, "_rejected", {}) == {}


# ----------------------------------------- where the engine runs a repair
def watch(monkeypatch, program):
    """Record every engine's effects and observer calls, and each
    ``correct`` call as (rank, iteration, number of effects and calls
    its engine had made)."""
    effects, calls = {}, []
    build = api.rank_engine

    def watched(config, rank, topo):
        return spy_on(build(config, rank, topo), effects.setdefault(rank, []))

    repair = program.correct

    def counted(rank, next_block, inputs, rejected, t):
        calls.append((rank, t, len(effects[rank])))
        return repair(rank, next_block, inputs, rejected, t)

    monkeypatch.setattr(api, "rank_engine", watched)
    program.correct = counted
    return effects, calls


@pytest.mark.parametrize("backend", ["loopback", "des"])
@pytest.mark.parametrize("policy", ["static", "cost"])
@pytest.mark.parametrize("cascade", ["recompute", "none"])
@pytest.mark.parametrize("fw", [1, 2])
def test_repairs_run_inside_a_verification(monkeypatch, fw, cascade, policy, backend):
    """θ rejects most speculations but not all, so some iterations end
    on an accept.  Loopback runs the protocol clockless; the DES latency
    (three computes) makes the cost policy move the window."""
    prog = RandomDrift(4, 16, coupling=0.3, threshold=0.2)
    effects, calls = watch(monkeypatch, prog)
    window = CostWindow(epoch=2) if policy == "cost" else None
    cluster = None
    if backend == "des":
        cluster = Cluster(uniform_specs(4, capacity=1000.0), network_factory=lambda env:
                          DelayNetwork(env, ConstantLatency(3.0)))
    report = run(RunConfig(prog, backend=backend, fw=fw, cascade=cascade,
                           window_policy=window, cluster=cluster))
    rejections = sum(s.spec_rejected for s in report.stats)
    assert 0 < len(calls) <= rejections
    if backend == "des" and policy == "cost":
        assert any(e[0] == "window_changed" for seen in effects.values()
                   for e in seen if type(e) is tuple)
    for rank, _, at in calls:
        last, after = effects[rank][at - 1], effects[rank][at]
        assert type(last) is tuple and last[0] in ("verified", "cascade_begin")
        assert type(after) is Charge
        assert after.phase == ("check" if last[0] == "verified" else "correct")
    if fw == 1 and policy == "static":
        begun = {(rank, e[1][0]) for rank, seen in effects.items()
                 for e in seen if type(e) is tuple and e[0] == "cascade_begin"}
        assert sorted((rank, t) for rank, t, _ in calls) == sorted(begun)
        assert len(calls) < rejections  # some iteration repaired several


# ------------------------------------ a repair the cascade recomputes away
def test_a_repair_owed_to_a_recomputed_block_is_not_applied_twice():
    """Rank 0 of 4 at FW=2 has computed X(3) with nothing verified.
    Peer 1's X(1) and X(2) are rejected; the window holds iteration 3,
    so the repair of X(3) waits.  Then peer 2's X(1) is rejected, and
    its cascade recomputes X(3) from inputs that already hold peer 1's
    actual X(2).  Peer 3's X(1) is accepted (its particles sit far away
    and at rest, so the extrapolation is right) and verifies iteration
    1 without a cascade: the waiting repair must not add its Δa to the
    recomputed X(3) a second time.  With every other speculation
    rejected and recomputed, the run ends on the exact trajectory."""
    rng = np.random.default_rng(5)
    n, p, iterations = 24, 4, 4
    pos = rng.uniform(-1.0, 1.0, (n, 3))
    vel = rng.uniform(-0.1, 0.1, (n, 3))
    pos[18:] += 1e4  # rank 3's particles (the last quarter)
    vel[18:] = 0.0
    system = ParticleSystem(rng.uniform(0.5, 1.5, n), pos, vel, softening=0.1)

    def program():
        return NBodyProgram(system, [1.0] * p, iterations, threshold=1e-6)

    prog, ref = program(), program()
    assert list(prog.partition.indices(3)) == list(range(18, 24))
    exact = [{r: ref.initial_block(r) for r in range(p)}]
    for t in range(iterations):
        exact.append({r: ref.compute(r, exact[t], t) for r in range(p)})

    engine = build_engine(prog, 0, topology(prog), fw=2, cascade="recompute")
    script = iter([(1, 1), (1, 2), (2, 1), (3, 1),
                   (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)])
    gen = engine.run(RankObserver(0))
    response = None
    while True:
        try:
            effect = gen.send(response)
        except StopIteration as stop:
            final = stop.value
            break
        response = None
        if type(effect) is Recv:
            k, t = next(script)
            response = Arrival(src=k, iteration=t, payload=exact[t][k])
    assert next(script, None) is None
    assert engine.stats.spec_accepted == 3  # peer 3's X(1), X(2), X(3)
    assert engine.stats.spec_rejected == 6
    assert engine.owed == {} and prog._rejected == {}
    np.testing.assert_allclose(final, exact[iterations][0], rtol=1e-10, atol=1e-13)
