"""Unit tests for latency models."""

import pytest

from repro.netsim import ConstantLatency, StochasticLatency, TransientSpikes
from repro.netsim.latency import Spike, latency_model


def test_constant_latency():
    m = ConstantLatency(0.5)
    assert m.delay(0, 1, 0.0) == 0.5
    assert m.delay(3, 7, 99.0) == 0.5


def test_constant_latency_rejects_negative():
    with pytest.raises(ValueError):
        ConstantLatency(-1)


def test_stochastic_sigma_zero_is_base():
    base = ConstantLatency(2.0)
    m = StochasticLatency(base, sigma=0.0, seed=1)
    assert m.delay(0, 1, 0) == 2.0


def test_stochastic_jitter_positive_and_deterministic():
    base = ConstantLatency(1.0)
    a = StochasticLatency(base, sigma=0.3, seed=42)
    b = StochasticLatency(base, sigma=0.3, seed=42)
    sa = [a.delay(0, 1, 0) for _ in range(100)]
    sb = [b.delay(0, 1, 0) for _ in range(100)]
    assert sa == sb
    assert all(d > 0 for d in sa)
    assert len(set(sa)) > 1  # actually jitters


def test_stochastic_negative_sigma_rejected():
    with pytest.raises(ValueError):
        StochasticLatency(ConstantLatency(1), sigma=-0.1)


def test_spike_matching_rules():
    s = Spike(extra=5.0, t_start=1.0, t_end=2.0, src=0, dst=1)
    assert s.applies(0, 1, 1.5)
    assert not s.applies(0, 1, 2.0)  # window is half-open
    assert not s.applies(0, 1, 0.5)
    assert not s.applies(1, 0, 1.5)
    wildcard = Spike(extra=1.0)
    assert wildcard.applies(7, 3, 123.0)


def test_transient_spikes_add_only_in_window():
    base = ConstantLatency(1.0)
    m = TransientSpikes(base, spikes=[Spike(extra=10.0, t_start=0.0, t_end=0.5, src=0, dst=1)])
    assert m.delay(0, 1, 0.0) == pytest.approx(11.0)
    assert m.delay(0, 1, 1.0) == pytest.approx(1.0)
    assert m.delay(1, 0, 0.0) == pytest.approx(1.0)



def test_latency_model_wraps_jitter_only_when_asked():
    assert latency_model(0.05) == ConstantLatency(0.05)
    jittered = latency_model(0.05, jitter=0.3, seed=4)
    twin = StochasticLatency(ConstantLatency(0.05), sigma=0.3, seed=4)
    assert isinstance(jittered, StochasticLatency) and jittered.sigma == 0.3
    assert [jittered.delay(0, 1, t) for t in range(5)] == [
        twin.delay(0, 1, t) for t in range(5)]
