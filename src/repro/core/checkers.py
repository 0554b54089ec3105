"""Generic error metrics for speculated-vs-actual comparison.

The acceptance rule of the paper (Section 3.1) is::

    error = compare(X_k(t), X*_k(t))
    if error > threshold: correct / recompute

``compare`` is application-specific (the N-body app implements the
pairwise Eq. 11 metric); these generic metrics serve array-valued
applications that lack domain structure.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class ErrorMetric(ABC):
    """Scalar discrepancy between a speculated and an actual block."""

    @abstractmethod
    def error(self, speculated: np.ndarray, actual: np.ndarray) -> float:
        """Non-negative scalar error; 0 means the speculation was exact."""


class MaxRelativeError(ErrorMetric):
    """max |x* - x| / (|x| + 1e-12): scale-free per-variable error.

    The 1e-12 guards against division by zero for near-zero actual
    values.  Each block is converted once and reduced with
    ``ndarray.max``: the ufuncs of ``np.max(np.abs(s - a) / (np.abs(a) +
    1e-12))`` in the same order, so the same float, without the
    wrapper's frames (a check runs once per speculation).
    """

    def error(self, speculated, actual):
        s = np.asarray(speculated, dtype=float)
        a = np.asarray(actual, dtype=float)
        if s.shape != a.shape:
            raise ValueError(f"shape mismatch: {s.shape} vs {a.shape}")
        if s.size == 0:
            return 0.0
        return float((np.abs(s - a) / (np.abs(a) + 1e-12)).max())

