"""Tests for the extended (variance + window aware) performance model."""

from dataclasses import replace

import pytest

from repro.perfmodel import (
    ExtendedPerformanceModel,
    LinearCommTime,
    PerformanceModel,
    VariabilityParams,
    iteration_time,
    section4_params,
)


def model(comm_cv=0.0, comp_cv=0.0, k1=0.02, bw_discount=1.0, seed=1, **kw):
    return ExtendedPerformanceModel(
        section4_params(k=0.02),
        VariabilityParams(comm_cv=comm_cv, comp_cv=comp_cv, k1=k1,
                          bw_discount=bw_discount, **kw),
        seed=seed,
    )


def test_variability_params_validation():
    with pytest.raises(ValueError):
        VariabilityParams(comm_cv=-1)
    with pytest.raises(ValueError):
        VariabilityParams(k1=1.5)
    with pytest.raises(ValueError):
        VariabilityParams(bw_discount=0.0)
    with pytest.raises(ValueError):
        VariabilityParams(correction_fraction=-1)


def test_rejection_probability_gap_squared():
    v = VariabilityParams(k1=0.02)
    assert v.rejection_probability(1, 2) == pytest.approx(0.02)
    assert v.rejection_probability(2, 2) == pytest.approx(0.08)
    assert v.rejection_probability(10, 2) == 1.0  # clamped
    with pytest.raises(ValueError):
        v.rejection_probability(0, 2)
    with pytest.raises(ValueError):
        v.rejection_probability(1, 0)


def test_bw_discount_reduces_rejections():
    v = VariabilityParams(k1=0.1, bw_discount=0.5)
    assert v.rejection_probability(2, 1) == pytest.approx(0.4)
    assert v.rejection_probability(2, 2) == pytest.approx(0.2)
    assert v.rejection_probability(2, 3) == pytest.approx(0.1)


def test_deterministic_limit_is_the_law_at_every_fw():
    """No variance and no rejections leave the engine's pipelining law:
    ``C + L`` blocking, ``max(C + O, (L + O_v) / f)`` on the bottleneck
    rank at a window f, to within the one iteration of the 4000 averaged
    that a window's phase can add.  The latency is four compute phases,
    so it binds up to f = 3 and the work binds at f = 4."""
    params = section4_params(k=0.0)
    params = replace(params, t_comm=LinearCommTime(slope=4 * params.t_comm.slope))
    base = PerformanceModel(params)
    m = ExtendedPerformanceModel(params, VariabilityParams(k1=0.0), seed=1)
    rank = max(range(16), key=lambda i: base.t_spec_rank(16, i))
    spec, comp, check, _ = base.spec_terms(16, rank)
    laws = [base.t_nospec(16)] + [
        iteration_time(fw, comp, params.t_comm(16), spec, check) for fw in range(1, 5)]
    assert laws[3] > laws[4] == comp + spec + check
    for fw, law in enumerate(laws):
        assert m.expected_iteration_time(16, fw) == pytest.approx(law, rel=1e-3), fw


def test_p1_reduces_to_serial():
    m = model()
    base = PerformanceModel(section4_params(k=0.02))
    assert m.expected_iteration_time(1, 1) == base.t_serial()


def test_fw1_beats_fw0_when_comm_maskable():
    m = model(comm_cv=0.0)
    assert m.expected_iteration_time(16, 1) < m.expected_iteration_time(16, 0)


def test_variance_hurts_fw1():
    """Jensen: random comm around the same mean leaves unmaskable tails."""
    calm = model(comm_cv=0.0).expected_iteration_time(16, 1)
    noisy = model(comm_cv=1.5).expected_iteration_time(16, 1)
    assert noisy > calm


def test_deeper_window_recovers_variance_losses():
    m = model(comm_cv=1.5)
    t1 = m.expected_iteration_time(16, 1)
    t2 = m.expected_iteration_time(16, 2)
    t3 = m.expected_iteration_time(16, 3)
    assert t2 < t1
    assert t3 <= t2 + 1e-9


def test_optimal_fw_grows_with_comm_variance():
    calm = model(comm_cv=0.0).optimal_fw(16, max_fw=4)
    noisy = model(comm_cv=1.5).optimal_fw(16, max_fw=4)
    assert calm >= 1
    assert noisy >= calm


def test_high_rejection_cost_caps_the_window():
    """With error-prone speculation, deep windows stop paying."""
    cheap = model(comm_cv=1.5, k1=0.01).optimal_fw(16, max_fw=6)
    risky = model(comm_cv=1.5, k1=0.5).optimal_fw(16, max_fw=6)
    assert risky <= cheap


def test_bw_discount_improves_deep_windows():
    low_order = model(comm_cv=1.5, k1=0.3, bw_discount=1.0)
    t_bw1 = low_order.expected_iteration_time(16, 3, bw=1)
    t_bw3 = low_order.expected_iteration_time(16, 3, bw=3)
    assert t_bw3 == pytest.approx(t_bw1)  # discount 1.0: BW irrelevant
    smooth = model(comm_cv=1.5, k1=0.3, bw_discount=0.3)
    t_bw1 = smooth.expected_iteration_time(16, 3, bw=1)
    t_bw3 = smooth.expected_iteration_time(16, 3, bw=3)
    assert t_bw3 < t_bw1


def test_window_study_grid():
    m = model(comm_cv=1.0, k1=0.05, bw_discount=0.5)
    study = m.window_study(8, fws=range(0, 3), bws=(1, 2))
    assert len(study["grid"]) == 6
    assert study["best"] in study["grid"]
    assert study["grid"][study["best"]] == min(study["grid"].values())


def test_estimates_deterministic_given_seed():
    a = model(comm_cv=1.0, seed=3).expected_iteration_time(8, 2)
    b = model(comm_cv=1.0, seed=3).expected_iteration_time(8, 2)
    assert a == b


def test_validation():
    with pytest.raises(ValueError):
        ExtendedPerformanceModel(section4_params(), VariabilityParams(), mc_iterations=5)
    m = model()
    with pytest.raises(ValueError):
        m.expected_iteration_time(8, -1)
    with pytest.raises(ValueError):
        m.optimal_fw(8, max_fw=0)
