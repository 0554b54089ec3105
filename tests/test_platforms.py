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

from tests.test_netsim_network import transfer


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
    plat = two_processor_demo(compute_seconds=2.0, comm_seconds=1.0)
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
    done = transfer(bus, 100)
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
            yield transfer(bus, 2000)
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
            yield transfer(bus, 1000)
            return env.now

        done = env.process(fg(env))
        return env.run(until=done)

    assert run_once() == run_once()
