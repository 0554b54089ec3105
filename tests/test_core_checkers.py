"""Unit tests for generic error metrics."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import MaxRelativeError


def test_max_rel_error_scale_free():
    m = MaxRelativeError()
    e1 = m.error(np.array([110.0]), np.array([100.0]))
    e2 = m.error(np.array([1.10]), np.array([1.00]))
    assert e1 == pytest.approx(e2, rel=1e-9)
    assert e1 == pytest.approx(0.1)


def test_max_rel_error_eps_guards_zero():
    m = MaxRelativeError()
    assert np.isfinite(m.error(np.array([1.0]), np.array([0.0])))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        MaxRelativeError().error(np.zeros(3), np.zeros(4))


def test_empty_blocks_zero_error():
    assert MaxRelativeError().error(np.zeros(0), np.zeros(0)) == 0.0


def test_errors_nonnegative():
    rng = np.random.default_rng(0)
    m = MaxRelativeError()
    for _ in range(20):
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert m.error(a, b) >= 0.0


# ------------------------------------------- bit identity with the reference
def _reference(speculated, actual):
    """The metric as first written: ``np.max`` over the converted blocks."""
    s = np.asarray(speculated, dtype=float)
    a = np.asarray(actual, dtype=float)
    if s.size == 0:
        return 0.0
    return float(np.max(np.abs(s - a) / (np.abs(a) + 1e-12)))


def _bits(x):
    return struct.pack("<d", x)


_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64)
_special = st.sampled_from(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072e-308, 1e-12]
)


@st.composite
def _block_pairs(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6))
    elements = st.one_of(_floats, _special)
    s = draw(hnp.arrays(np.float64, shape, elements=elements))
    a = draw(hnp.arrays(np.float64, shape, elements=elements))
    if draw(st.booleans()):  # plain lists take the same conversion
        return s.tolist(), a.tolist()
    return s, a


@settings(max_examples=400, deadline=None)
@given(_block_pairs())
def test_error_is_bit_identical_to_the_np_max_reference(pair):
    s, a = pair
    with np.errstate(all="ignore"):
        got = MaxRelativeError().error(s, a)
        want = _reference(s, a)
    assert type(got) is float
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("s, a", [
    ([np.nan, 1.0], [1.0, 1.0]),
    ([1.0, 2.0], [np.inf, 1.0]),
    ([np.inf], [np.inf]),
    ([-0.0], [0.0]),
    ([5e-324], [-5e-324]),
    ([], []),
    (np.zeros((0, 3)), np.zeros((0, 3))),
])
def test_error_matches_the_reference_on_special_values(s, a):
    with np.errstate(all="ignore"):
        assert _bits(MaxRelativeError().error(s, a)) == _bits(_reference(s, a))


def test_shape_mismatch_still_rejected_for_lists_and_empty_blocks():
    with pytest.raises(ValueError, match="shape mismatch"):
        MaxRelativeError().error([1.0], [1.0, 2.0])  # would broadcast
    with pytest.raises(ValueError, match="shape mismatch"):
        MaxRelativeError().error(np.zeros((2, 1)), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="shape mismatch"):
        MaxRelativeError().error([1.0, 2.0], [[1.0, 2.0]])
    with pytest.raises(ValueError, match="shape mismatch"):
        MaxRelativeError().error(np.zeros(0), np.zeros((0, 1)))
