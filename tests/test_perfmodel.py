"""Tests for the Section-4 performance model (Eq. 3-9, Fig. 5, Fig. 6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel import (
    LinearCommTime,
    ModelParams,
    PerformanceModel,
    section4_params,
)


def simple_params(**overrides):
    defaults = dict(
        n=100,
        capacities=(100.0, 50.0),
        f_comp=10.0,
        f_spec=0.1,
        f_check=0.2,
        t_comm=LinearCommTime(slope=1.0),
        k=0.0,
    )
    defaults.update(overrides)
    return ModelParams(**defaults)


# --------------------------------------------------------------- LinearCommTime
def test_linear_comm_time_zero_for_p1():
    t = LinearCommTime(slope=2.0, base=1.0)
    assert t(1) == 0.0
    assert t(2) == 3.0
    assert t(4) == 7.0


def test_linear_comm_time_validation():
    with pytest.raises(ValueError):
        LinearCommTime(slope=-1.0)
    with pytest.raises(ValueError):
        LinearCommTime(slope=1.0)(0)


# ------------------------------------------------------------------ ModelParams
def test_params_validation():
    with pytest.raises(ValueError):
        simple_params(n=0)
    with pytest.raises(ValueError):
        simple_params(capacities=())
    with pytest.raises(ValueError):
        simple_params(capacities=(100.0, -1.0))
    with pytest.raises(ValueError):
        simple_params(capacities=(50.0, 100.0))  # not fastest-first
    with pytest.raises(ValueError):
        simple_params(k=1.5)
    with pytest.raises(ValueError):
        simple_params(f_comp=-1.0)


# --------------------------------------------------------------------- Eq. 3-6
def test_eq3_serial_time():
    m = PerformanceModel(simple_params())
    # N * f_comp / M_1 = 100*10/100
    assert m.t_serial() == pytest.approx(10.0)


def test_allocation_proportional():
    m = PerformanceModel(simple_params())
    n1, n2 = m.allocation(2)
    assert n1 + n2 == pytest.approx(100.0)
    assert n1 / n2 == pytest.approx(2.0)


def test_allocation_bounds():
    m = PerformanceModel(simple_params())
    with pytest.raises(ValueError):
        m.allocation(0)
    with pytest.raises(ValueError):
        m.allocation(3)


def test_eq6_nospec_time():
    m = PerformanceModel(simple_params())
    # balanced comp: each rank takes N f_comp / sum(M) = 1000/150 = 6.667
    # plus t_comm(2) = 1.0
    assert m.t_nospec(2) == pytest.approx(100 * 10 / 150 + 1.0)


def test_eq6_p1_reduces_to_serial():
    m = PerformanceModel(simple_params())
    assert m.t_nospec(1) == m.t_serial()
    assert m.t_spec(1) == m.t_serial()


# --------------------------------------------------------------------- Eq. 7-9
def test_eq8_overlap_comm_bound():
    """When comm dominates, iteration time = comm + check + recompute."""
    params = simple_params(t_comm=LinearCommTime(slope=100.0), k=0.0)
    m = PerformanceModel(params)
    counts = m.allocation(2)
    # overlap term = t_comm = 100; check on rank i = (N - N_i) f_check / M_i
    expected = max(
        100.0 + (100 - counts[i]) * 0.2 / params.capacities[i] for i in range(2)
    )
    assert m.t_spec(2) == pytest.approx(expected)


def test_eq8_overlap_compute_bound():
    """When compute dominates, comm disappears from the spec time."""
    params = simple_params(t_comm=LinearCommTime(slope=1e-9))
    m = PerformanceModel(params)
    counts = m.allocation(2)
    expected = max(
        ((100 - counts[i]) * 0.1 + counts[i] * 10.0 + (100 - counts[i]) * 0.2)
        / params.capacities[i]
        for i in range(2)
    )
    assert m.t_spec(2) == pytest.approx(expected)


def test_eq8_recompute_penalty_scales_with_k():
    base = PerformanceModel(simple_params(k=0.0)).t_spec(2)
    loaded = PerformanceModel(simple_params(k=0.5)).t_spec(2)
    counts = PerformanceModel(simple_params()).allocation(2)
    # penalty on the slowest-finishing rank
    assert loaded > base
    assert loaded - base <= 0.5 * max(
        c * 10.0 / m for c, m in zip(counts, (100.0, 50.0))
    ) + 1e-9


def test_speedup_max_formula():
    m = PerformanceModel(simple_params())
    assert m.speedup_max(2) == pytest.approx(150.0 / 100.0)


def test_speedup_monotone_in_k():
    ks = np.linspace(0, 0.5, 11)
    speedups = [
        PerformanceModel(simple_params(k=float(k))).speedup_spec(2) for k in ks
    ]
    assert all(a >= b - 1e-12 for a, b in zip(speedups, speedups[1:]))


# ------------------------------------------------------------- Section 4 study
def test_section4_fig5_shape():
    """Fig. 5: spec beats no-spec at large p; no-spec rolls over."""
    params = section4_params(k=0.02)
    m = PerformanceModel(params)
    curves = m.speedup_curves()
    spec = curves["speculation"]
    nospec = curves["no_speculation"]
    maximum = curves["maximum"]

    # Little difference at small p (communication negligible).
    assert spec[1] / nospec[1] < 1.10
    # Significant benefit at p=16 (paper: ~25%; ours is larger because
    # the "total" allocation idles processors whose checking overhead
    # exceeds their compute contribution -- see ModelParams docs).
    gain16 = spec[15] / nospec[15] - 1.0
    assert 0.10 < gain16 < 0.80
    # No-speculation curve decreases somewhere beyond p ~ 10.
    tail = nospec[9:]
    assert any(b < a for a, b in zip(tail, tail[1:]))
    # The speculation *advantage* grows with p (communication delays
    # matter more, so there is more to mask).
    gain = [s / n for s, n in zip(spec, nospec)]
    assert gain[15] > gain[7] > gain[3]
    # The speculative curve plateaus at large p rather than collapsing.
    assert spec[15] >= 0.75 * max(spec)
    # All speedups below the maximum attainable.
    assert all(s <= mx + 1e-9 for s, mx in zip(spec, maximum))
    assert all(s <= mx + 1e-9 for s, mx in zip(nospec, maximum))


def test_section4_fig6_shape():
    """Fig. 6: speculation wins for small k, loses for large k."""
    m = PerformanceModel(section4_params())
    data = m.error_sensitivity(8, k_values=np.linspace(0.0, 0.4, 21))
    spec = data["speculation"]
    nospec = data["no_speculation"][0]
    assert spec[0] > nospec  # k=0: clear win
    assert spec[-1] < nospec  # k=0.4: clear loss
    # Monotone decreasing in k.
    assert all(a >= b - 1e-12 for a, b in zip(spec, spec[1:]))


def test_section4_crossover_k_near_ten_percent():
    """Paper: 'speculation yields performance gain ... for errors less
    than 10%' on the 8-processor system."""
    m = PerformanceModel(section4_params())
    k_cross = m.crossover_k(8)
    assert 0.03 < k_cross < 0.30


def test_crossover_edge_cases():
    # Comm enormous and checking free: speculation wins even at k=1.
    params = simple_params(t_comm=LinearCommTime(slope=1e6), f_check=0.0)
    assert PerformanceModel(params).crossover_k(2) == 1.0
    # Comm enormous but checking costly: crossover just below 1
    # (at k=1 the whole compute phase is redone *and* checking is paid).
    params = simple_params(t_comm=LinearCommTime(slope=1e6))
    assert 0.9 < PerformanceModel(params).crossover_k(2) < 1.0
    # Comm zero and overheads positive: speculation never wins -> 0.0
    params = simple_params(t_comm=LinearCommTime(slope=0.0))
    assert PerformanceModel(params).crossover_k(2) == 0.0


@settings(max_examples=50, deadline=None)
@given(
    p=st.integers(2, 16),
    k=st.floats(0.0, 0.3),
)
def test_property_speedups_bounded_by_maximum(p, k):
    m = PerformanceModel(section4_params(k=k))
    assert m.speedup_spec(p) <= m.speedup_max(p) + 1e-9
    assert m.speedup_nospec(p) <= m.speedup_max(p) + 1e-9


@settings(max_examples=50, deadline=None)
@given(p=st.integers(2, 16))
def test_property_zero_overhead_spec_never_slower(p):
    """With free speculation/checking and k=0, Eq. 8 <= Eq. 6 always."""
    params = section4_params(k=0.0)
    free = ModelParams(
        n=params.n,
        capacities=params.capacities,
        f_comp=params.f_comp,
        f_spec=0.0,
        f_check=0.0,
        t_comm=params.t_comm,
        k=0.0,
    )
    m = PerformanceModel(free)
    assert m.t_spec(p) <= m.t_nospec(p) + 1e-9
