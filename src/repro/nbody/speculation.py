"""Eq. 10 position speculation and the Eq. 11 pairwise error metric.

Speculation (Eq. 10): a remote particle's position is extrapolated one
timestep assuming constant velocity::

    r*_a(t) = r_a(t-1) + v_a(t-1) · Δt

Checking (Eq. 11): the effect of a position error on the force exerted
on a local particle b is approximately proportional to::

    error_{a,b} = ‖r*_a(t) − r_a(t)‖ / ‖r_a(t) − r_b(t)‖

The speculation for particle a is acceptable when this ratio is below
the threshold θ for every local particle b; equivalently, when the
ratio against the *nearest* local particle is below θ.
"""

from __future__ import annotations

import numpy as np

from repro.nbody.forces import PLANE, squared_separations

#: Paper's cost accounting: flops to speculate one particle's position.
SPECULATE_FLOPS_PER_PARTICLE = 12.0
#: Paper's cost accounting: flops to error-check one particle.
CHECK_FLOPS_PER_PARTICLE = 24.0

#: Relative slack on each side of :func:`uncertified`'s inequality.  The
#: separations, the displacement and the inequality itself round by a
#: few ulps (about 1e-15); the slack outweighs them hundreds of times over.
CERTIFY_MARGIN = 1e-12
#: Nearest squared separations are clamped here: one that overflowed to
#: inf would certify any displacement.
MAX_SQUARE = 1e300


def speculate_positions(pos: np.ndarray, vel: np.ndarray, dt: float) -> np.ndarray:
    """Constant-velocity extrapolation of positions (Eq. 10)."""
    p = np.asarray(pos, dtype=float)
    v = np.asarray(vel, dtype=float)
    if p.shape != v.shape:
        raise ValueError("pos and vel must have identical shapes")
    if dt <= 0:
        raise ValueError("dt must be positive")
    return p + v * dt


def pairwise_error_ratios(
    speculated_pos: np.ndarray,
    actual_pos: np.ndarray,
    local_pos: np.ndarray,
) -> np.ndarray:
    """Per-remote-particle worst-case Eq. 11 ratio.

    For each remote particle a, returns
    ``‖r*_a − r_a‖ / min_b ‖r_a − r_b‖`` — the error ratio against the
    *nearest* local particle, i.e. the largest ratio over all local b.

    Works on the force kernel's component planes (DESIGN.md §5.8): a
    chunk of ``PLANE // n_l`` remote particles by every local one.

    Parameters
    ----------
    speculated_pos / actual_pos:
        (n_r, 3) speculated and true remote positions.
    local_pos:
        (n_l, 3) positions of the checking processor's own particles.

    A distance floor of 1e-12 keeps coincident particles finite.

    Returns
    -------
    (n_r,) array of ratios (all zero if there are no local particles).
    """
    sp = np.asarray(speculated_pos, dtype=float)
    ap = np.asarray(actual_pos, dtype=float)
    lp = np.asarray(local_pos, dtype=float)
    if sp.shape != ap.shape:
        raise ValueError("speculated and actual positions must match shapes")
    if sp.ndim != 2 or sp.shape[1] != 3:
        raise ValueError("positions must be (n, 3)")
    if sp.shape[0] == 0:
        return np.zeros(0)
    if lp.shape[0] == 0:
        return np.zeros(sp.shape[0])
    displacement = np.linalg.norm(sp - ap, axis=1)
    n_r, n_l = ap.shape[0], lp.shape[0]
    remote = ap.T[:, :, None]
    rows = min(max(PLANE // n_l, 1), n_r)
    # Remote-major (rows, n_l) planes, reused by every chunk: the three
    # components of the separation, squared and summed in place, and the
    # local particles repeated down the rows (so every operand is contiguous).
    planes = np.empty((6, rows, n_l))
    planes[3:] = np.ascontiguousarray(lp.T)[:, None, :]
    nearest2 = np.empty(n_r)
    for lo in range(0, n_r, rows):
        hi = min(lo + rows, n_r)
        # dist2 = (dx² + dz²) + dy², the association the force kernel pins.
        d2 = squared_separations(planes[:3, : hi - lo], remote[:, lo:hi], planes[3:, : hi - lo])
        np.minimum.reduce(d2, axis=1, out=nearest2[lo:hi])
    # sqrt is monotone and correctly rounded: the root of the minimum
    # is the minimum of the roots, for n_r roots instead of n_r * n_l.
    return displacement / np.maximum(np.sqrt(nearest2), 1e-12)


def uncertified(
    speculated_pos: np.ndarray,
    actual_pos: np.ndarray,
    nearest2: np.ndarray,
    threshold: float,
) -> np.ndarray:
    """Indices of the remote particles a triangle-inequality bound cannot
    clear of an Eq. 11 ratio above ``threshold``.

    ``nearest2[a]`` is the squared separation of the *speculated*
    ``r*_a`` to its nearest local particle, s² (the force kernel's
    ``nearest`` output).  With ``d = ‖r*_a − r_a‖``, every local b has
    ``‖r_a − r_b‖ ≥ s − d``, so ``d ≤ θ·(s − d)`` bounds the ratio
    :func:`pairwise_error_ratios` would return for a by θ.  The test
    runs squared, with :data:`CERTIFY_MARGIN` on each side (DESIGN.md
    §5.8); NaN never certifies.  ``nearest2`` is overwritten.
    """
    # d² = (dx² + dy²) + dz²: the sum pairwise_error_ratios roots for d.
    delta = np.subtract(speculated_pos, actual_pos)
    np.square(delta, out=delta)
    d2 = delta[:, 0] + delta[:, 1]
    d2 += delta[:, 2]
    # d·(1 + θ(1 + m)) ≤ s·θ(1 − m), both sides squared.
    d2 *= (1.0 + threshold * (1.0 + CERTIFY_MARGIN)) ** 2
    np.minimum(nearest2, MAX_SQUARE, out=nearest2)
    nearest2 *= (threshold * (1.0 - CERTIFY_MARGIN)) ** 2
    return np.flatnonzero(~(d2 <= nearest2))
