"""Cross-validation: the performance models vs the simulator.

The pipelining law :func:`repro.perfmodel.iteration_time` must be what
the discrete-event simulator runs.  The Monte-Carlo pipeline model of
:mod:`repro.perfmodel.extended` and the simulator implement the same
protocol at very different abstraction levels; their qualitative
predictions must agree.
"""

import pytest

from repro.api import RunConfig, run
from repro.core import ZeroOrderHold
from repro.harness import fig9_model_vs_measured, run_nbody
from repro.netsim import ConstantLatency, DelayNetwork, StochasticLatency
from repro.perfmodel import (
    ExtendedPerformanceModel,
    LinearCommTime,
    ModelParams,
    PerformanceModel,
    VariabilityParams,
    iteration_time,
)
from repro.vm import Cluster, uniform_specs

from tests.toy_programs import CoupledIncrement

#: Shared scenario: 2 equal processors, compute 1 s, comm 1.6 s mean.
COMP_OPS = 1000.0
CAPACITY = 1000.0
COMM = 1.6
P = 2
N_VARS = 8  # 2 blocks of 4 scalars


def des_time_per_iteration(fw: int, sigma: float, iterations: int = 30) -> float:
    latency = ConstantLatency(COMM)
    model = StochasticLatency(latency, sigma=sigma, seed=11) if sigma else latency
    cluster = Cluster(
        uniform_specs(P, capacity=CAPACITY),
        network_factory=lambda env: DelayNetwork(env, model),
    )
    prog = CoupledIncrement(
        nprocs=P, iterations=iterations, coupling=0.0, rates=[0.0, 0.0],
        threshold=0.0, ops_per_compute=COMP_OPS, speculator=ZeroOrderHold(),
    )
    result = run(RunConfig(prog, fw=fw, cascade="none", cluster=cluster))
    return result.wall_seconds / iterations


def model_time_per_iteration(fw: int, comm_cv: float) -> float:
    # Express the same scenario in model terms: per-variable op counts
    # such that a full compute phase costs COMP_OPS on each rank.
    params = ModelParams(
        n=N_VARS,
        capacities=(CAPACITY, CAPACITY),
        f_comp=COMP_OPS / (N_VARS / P),
        f_spec=12.0,
        f_check=24.0,
        t_comm=LinearCommTime(slope=COMM),
        k=0.0,
    )
    model = ExtendedPerformanceModel(
        params, VariabilityParams(comm_cv=comm_cv, k1=0.0), seed=3,
    )
    return model.expected_iteration_time(P, fw)


def test_agreement_deterministic_blocking():
    """FW=0, no variance: both say compute + comm exactly."""
    assert des_time_per_iteration(0, 0.0, iterations=50) == pytest.approx(
        model_time_per_iteration(0, 0.0), rel=0.1
    )


def test_agreement_deterministic_fw1():
    """FW=1, comm > comp: both predict ~comm-bound iterations."""
    des = des_time_per_iteration(1, 0.0, iterations=50)
    mod = model_time_per_iteration(1, 0.0)
    assert des == pytest.approx(mod, rel=0.15)


def test_agreement_on_orderings_under_variance():
    """Both levels agree on the qualitative structure with jittery comm:
    FW1 < FW0, and FW2 <= FW1 (deeper window absorbs jitter)."""
    sigma = 0.6  # log-normal sigma -> cv = sqrt(e^{s^2}-1) ~ 0.66
    cv = 0.66
    des = {fw: des_time_per_iteration(fw, sigma, iterations=40) for fw in (0, 1, 2)}
    mod = {fw: model_time_per_iteration(fw, cv) for fw in (0, 1, 2)}
    for series in (des, mod):
        assert series[1] < series[0]
        assert series[2] <= series[1] + 1e-9


def test_agreement_on_variance_penalty():
    """Both levels: jitter makes FW=1 slower than the calm case."""
    des_calm = des_time_per_iteration(1, 0.0, iterations=40)
    des_noisy = des_time_per_iteration(1, 0.6, iterations=40)
    mod_calm = model_time_per_iteration(1, 0.0)
    mod_noisy = model_time_per_iteration(1, 0.66)
    assert des_noisy > des_calm
    assert mod_noisy > mod_calm


def test_the_law_is_the_des_slope_on_the_toy():
    """The engine's pipelining law against the DES it describes: the
    per-iteration slope of the toy on the default uniform cluster (10 us
    of work, 0.48 us speculation and 0.96 us check per iteration) at
    L / C in {0.5, 2, 8, 32} and every window 0-4 is ``iteration_time``
    to 1 %."""

    def toy(iterations):
        return CoupledIncrement(
            nprocs=2, iterations=iterations, coupling=0.0, rates=[0.0, 0.0],
            threshold=0.0, speculator=ZeroOrderHold(),
        )

    def makespan(fw, iterations, latency):
        return run(RunConfig(toy(iterations), fw=fw, latency=latency)).wall_seconds

    prog, (cpu, _) = toy(1), uniform_specs(2)
    work, spec, check = (cpu.seconds_for(ops) for ops in (
        prog.compute_ops(0), prog.speculate_ops(0, 1), prog.check_ops(0, 1)))

    for ratio in (0.5, 2, 8, 32):
        latency = ratio * work
        for fw in range(5):
            slope = (makespan(fw, 160, latency) - makespan(fw, 40, latency)) / 120
            law = iteration_time(fw, work, latency, spec, check)
            assert slope == pytest.approx(law, rel=0.01), (ratio, fw)


def test_the_law_holds_on_the_fig8_platform():
    """On the Fig. 8 platform latency never outlasts a rank's work, so
    the law prices FW=2 like FW=1, as the DES runs it.  At FW 0-2 its
    speedups are within the Fig. 9 model's 4.8 % of the DES at every p
    (FW 0 and 1 are Fig. 9's own columns: Eq. 6 and Eq. 8 are the law
    there)."""
    fig9 = fig9_model_vs_measured()
    data = fig9.extra["data"]
    assert max(data["deviation_no_speculation_pct"]) < 4.8
    assert max(data["deviation_speculation_pct"]) < 4.8
    model = PerformanceModel(fig9.extra["params"])
    t1 = run_nbody(1, 0)[1].time_per_iteration
    for p in (2, 4, 8, 12, 16):
        law = max(
            iteration_time(2, comp, model.params.t_comm(p), spec, check, correct)
            for spec, comp, check, correct in (
                model.spec_terms(p, i) for i in range(p)))
        measured = t1 / run_nbody(p, 2)[1].time_per_iteration
        assert model.t_serial() / law == pytest.approx(measured, rel=0.048), p
