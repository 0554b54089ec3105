"""Cross-validation: the extended performance model vs the simulator.

The Monte-Carlo pipeline model of :mod:`repro.perfmodel.extended` and
the discrete-event simulator implement the same protocol at very
different abstraction levels; their qualitative predictions must
agree.
"""

import pytest

from repro.api import RunConfig, run
from repro.core import ZeroOrderHold
from repro.netsim import ConstantLatency, DelayNetwork, StochasticLatency
from repro.perfmodel import (
    ExtendedPerformanceModel,
    LinearCommTime,
    ModelParams,
    VariabilityParams,
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
