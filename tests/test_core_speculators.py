"""Unit + property tests for speculation functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LinearExtrapolation,
    PolynomialExtrapolation,
    ZeroOrderHold,
)


def hist(*rows):
    times = list(range(len(rows)))
    values = [np.asarray(r, dtype=float) for r in rows]
    return times, values


def test_zoh_holds_last_value():
    times, values = hist([1.0, 2.0], [3.0, 4.0])
    out = ZeroOrderHold().extrapolate(times, values, 2)
    np.testing.assert_allclose(out, [3.0, 4.0])


def test_zoh_returns_copy():
    times, values = hist([1.0])
    out = ZeroOrderHold().extrapolate(times, values, 1)
    out[0] = 99.0
    assert values[-1][0] == 1.0


def test_linear_exact_on_linear_trajectory():
    times, values = hist([0.0], [1.0], [2.0])
    out = LinearExtrapolation().extrapolate(times, values, 5)
    np.testing.assert_allclose(out, [5.0])


def test_linear_handles_gaps_in_times():
    # samples at t=0 and t=4, extrapolate to t=6
    out = LinearExtrapolation().extrapolate([0, 4], [np.array([0.0]), np.array([8.0])], 6)
    np.testing.assert_allclose(out, [12.0])


def test_linear_degrades_to_hold_with_one_point():
    out = LinearExtrapolation().extrapolate([0], [np.array([7.0])], 3)
    np.testing.assert_allclose(out, [7.0])


def test_polynomial_exact_on_quadratic():
    ts = [0, 1, 2]
    vs = [np.array([float(t * t)]) for t in ts]
    out = PolynomialExtrapolation(order=2).extrapolate(ts, vs, 4)
    np.testing.assert_allclose(out, [16.0])


def test_polynomial_order_zero_is_hold():
    out = PolynomialExtrapolation(order=0).extrapolate([0, 1], [np.array([1.0]), np.array([5.0])], 2)
    np.testing.assert_allclose(out, [5.0])


def test_polynomial_degrades_with_short_history():
    # order 3 wants 4 points; give 2 -> linear behaviour
    out = PolynomialExtrapolation(order=3).extrapolate([0, 1], [np.array([0.0]), np.array([2.0])], 3)
    np.testing.assert_allclose(out, [6.0])


def test_polynomial_validation():
    with pytest.raises(ValueError):
        PolynomialExtrapolation(order=-1)


def test_backward_window_sizes():
    assert ZeroOrderHold().backward_window == 1
    assert LinearExtrapolation().backward_window == 2
    assert PolynomialExtrapolation(order=3).backward_window == 4


@pytest.mark.parametrize(
    "spec",
    [ZeroOrderHold(), LinearExtrapolation(), PolynomialExtrapolation(2)],
)
def test_common_validation(spec):
    v = [np.array([1.0])]
    with pytest.raises(ValueError):
        spec.extrapolate([], [], 1)  # empty history
    with pytest.raises(ValueError):
        spec.extrapolate([0, 1], v, 2)  # length mismatch
    with pytest.raises(ValueError):
        spec.extrapolate([1, 0], v * 2, 2)  # non-increasing times
    with pytest.raises(ValueError, match="strictly increasing"):
        spec.extrapolate([0, 0], v * 2, 2)  # equal times
    with pytest.raises(ValueError, match="strictly increasing"):
        spec.extrapolate([0, 2, 2], v * 3, 3)  # equal times at the end
    with pytest.raises(ValueError):
        spec.extrapolate([0], v, 0)  # target not in future


@settings(max_examples=100, deadline=None)
@given(
    x0=st.floats(-100, 100),
    slope=st.floats(-10, 10),
    n=st.integers(2, 6),
    target_gap=st.integers(1, 5),
)
def test_property_linear_extrapolation_exact_on_lines(x0, slope, n, target_gap):
    times = list(range(n))
    values = [np.array([x0 + slope * t]) for t in times]
    target = n - 1 + target_gap
    out = LinearExtrapolation().extrapolate(times, values, target)
    np.testing.assert_allclose(out, [x0 + slope * target], rtol=1e-9, atol=1e-7)


@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    n=st.integers(3, 6),
)
def test_property_quadratic_extrapolation_exact_on_quadratics(coeffs, n):
    a, b, c = coeffs
    times = list(range(n))
    values = [np.array([a * t * t + b * t + c]) for t in times]
    out = PolynomialExtrapolation(order=2).extrapolate(times, values, n + 1)
    expect = a * (n + 1) ** 2 + b * (n + 1) + c
    np.testing.assert_allclose(out, [expect], rtol=1e-7, atol=1e-6)


def test_multidimensional_blocks_supported():
    values = [np.arange(6, dtype=float).reshape(2, 3) * (t + 1) for t in range(2)]
    out = LinearExtrapolation().extrapolate([0, 1], values, 2)
    np.testing.assert_allclose(out, np.arange(6, dtype=float).reshape(2, 3) * 3)

