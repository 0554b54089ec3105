"""Unit tests for generic error metrics."""

import numpy as np
import pytest

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
