"""Tests for the calibrated platform presets."""

import pytest

from repro.netsim import BurstyTraffic, SharedBus
from repro.des import Environment
from repro.platforms import (
    TABLE2_COMM_SECONDS,
    TABLE2_COMP_SECONDS,
    WUSTL_M1,
    two_processor_demo,
    wustl_1994,
)


def test_wustl_spec_gradient():
    plat = wustl_1994(p=16)
    caps = plat.capacities()
    assert caps[0] == pytest.approx(WUSTL_M1)
    assert caps[0] / caps[-1] == pytest.approx(10.0)
    # linear gradient
    diffs = [a - b for a, b in zip(caps, caps[1:])]
    assert all(d == pytest.approx(diffs[0]) for d in diffs)


def test_wustl_subset_takes_fastest():
    full = wustl_1994(p=16).capacities()
    sub = wustl_1994(p=4).capacities()
    assert sub == full[:4]


def test_wustl_p_validation():
    with pytest.raises(ValueError):
        wustl_1994(p=0)
    with pytest.raises(ValueError):
        wustl_1994(p=17)


def test_wustl_cluster_builds_fresh_environments():
    plat = wustl_1994(p=2)
    c1, c2 = plat.cluster(), plat.cluster()
    assert c1.env is not c2.env
    assert c1.size == 2


def test_platform_metadata():
    plat = wustl_1994(p=3)
    assert plat.nprocs == 3
    assert "wustl" in plat.name
    assert plat.loads is None


def test_wustl_background_load_option():
    plat = wustl_1994(p=2, background_load=True)
    assert plat.loads is not None and len(plat.loads) == 2


def test_wustl_calibration_against_table2():
    """The calibration targets: compute ~5.83 s and comm ~4.7 s per
    steady iteration at p=16, N=1000, FW=0 (deterministic network)."""
    from repro.apps import NBodyProgram
    from repro.api import RunConfig, run
    from repro.nbody import uniform_cube

    plat = wustl_1994(p=16)
    system = uniform_cube(1000, seed=42, softening=0.1)
    prog = NBodyProgram(system, plat.capacities(), iterations=5, dt=0.015)
    res = run(RunConfig(prog, fw=0, cluster=plat.cluster()))
    b = res.steady_breakdown()
    assert b["compute"] == pytest.approx(TABLE2_COMP_SECONDS, rel=0.05)
    assert b["comm"] == pytest.approx(TABLE2_COMM_SECONDS, rel=0.10)


def test_two_processor_demo_shape():
    plat = two_processor_demo(compute_seconds=2.0, comm_seconds=1.0,
                              ops_per_iteration=1e6)
    assert plat.nprocs == 2
    assert plat.capacities() == [5e5, 5e5]
    with pytest.raises(ValueError):
        two_processor_demo(compute_seconds=0.0)


def test_bursty_traffic_validation():
    with pytest.raises(ValueError):
        BurstyTraffic(base_rate=-1)
    with pytest.raises(ValueError):
        BurstyTraffic(mean_on=0)
    with pytest.raises(ValueError):
        BurstyTraffic(frame_bytes=-1)


def test_bursty_traffic_zero_rates_noop():
    env = Environment()
    bus = SharedBus(env, bandwidth=1000.0)
    BurstyTraffic(base_rate=0.0, burst_rate=0.0).attach(bus)
    done = bus.transfer(100)
    env.run(until=done)
    assert env.now == pytest.approx(0.1)


def test_bursty_traffic_bursts_delay_foreground():
    def completion(with_bursts):
        env = Environment()
        bus = SharedBus(env, bandwidth=1000.0)
        if with_bursts:
            BurstyTraffic(
                base_rate=0.0, burst_rate=200.0, mean_on=50.0, mean_off=0.001,
                frame_bytes=100, seed=4,
            ).attach(bus, until=100.0)

        def fg(env):
            yield env.timeout(1.0)
            yield bus.transfer(2000)
            return env.now

        done = env.process(fg(env))
        return env.run(until=done)

    assert completion(True) > completion(False)


def test_bursty_traffic_deterministic():
    def run_once():
        env = Environment()
        bus = SharedBus(env, bandwidth=500.0)
        BurstyTraffic(base_rate=5.0, burst_rate=100.0, mean_on=2.0,
                      mean_off=3.0, frame_bytes=100, seed=9).attach(bus, until=20.0)

        def fg(env):
            yield env.timeout(5.0)
            yield bus.transfer(1000)
            return env.now

        done = env.process(fg(env))
        return env.run(until=done)

    assert run_once() == run_once()


def test_modern_cluster_preset():
    from repro.platforms import modern_cluster

    plat = modern_cluster(p=4)
    assert plat.nprocs == 4
    caps = plat.capacities()
    assert len(set(caps)) == 1  # homogeneous
    cluster = plat.cluster()
    assert cluster.size == 4
    with pytest.raises(ValueError):
        modern_cluster(p=0)
    with pytest.raises(ValueError):
        modern_cluster(capacity=0)


def test_modern_cluster_speculation_still_pays_for_nbody():
    """Thirty years later the same story holds whenever per-message
    latency rivals per-iteration compute: a fine-grained N-body on a
    switched-gigabit cluster (200 us protocol latency vs ~0.6 ms of
    compute) still gains ~30% from FW=1."""
    from repro.apps import NBodyProgram
    from repro.api import RunConfig, run
    from repro.nbody import uniform_cube
    from repro.platforms import modern_cluster

    def go(fw):
        plat = modern_cluster(p=4, capacity=2e9, base_latency=200e-6)
        system = uniform_cube(256, seed=3, softening=0.1)
        prog = NBodyProgram(system, plat.capacities(), 30, dt=0.005, threshold=0.01)
        return run(RunConfig(prog, fw=fw, cluster=plat.cluster()))

    blocking = go(0).wall_seconds
    speculative = go(1).wall_seconds
    assert speculative < 0.8 * blocking


def test_modern_cluster_cheap_kernels_expose_speculation_overhead():
    """The flip side: for kernels whose per-element speculation/check
    cost rivals the compute cost (Kuramoto: 6 of ~11 ops), the masking
    gain is mostly eaten by the speculation overhead -- the f_spec <<
    f_comp requirement the paper states is a real constraint."""
    from repro.apps import KuramotoProgram
    from repro.api import RunConfig, run
    from repro.platforms import modern_cluster

    def go(fw):
        plat = modern_cluster(p=4, capacity=5e7, base_latency=200e-6)
        prog = KuramotoProgram.random(
            4000, plat.capacities(), 30, seed=3, dt=0.01, threshold=0.01
        )
        return run(RunConfig(prog, fw=fw, cluster=plat.cluster()))

    blocking = go(0).wall_seconds
    speculative = go(1).wall_seconds
    # Still no slower, but the gain is marginal (< 15%).
    assert speculative <= blocking
    assert speculative > 0.85 * blocking
