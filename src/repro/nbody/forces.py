"""Vectorized all-pairs gravitational forces.

Direct O(N²) summation with Plummer softening::

    a_i = G · Σ_j m_j (r_j − r_i) / (|r_j − r_i|² + ε²)^{3/2}

The paper counts "about 70 floating point operations" per pair force;
:data:`PAIR_FLOPS` carries that constant into the cost model so virtual
times match the paper's accounting even though numpy executes far
fewer visible Python operations.

The kernel works on 2-D component planes, :data:`PLANE` elements of
each per tile, and spells out its arithmetic in a fixed association, so the
result is defined bit for bit by this file (DESIGN.md §5.8) — the
drivers' golden traces and Fig. 8 are pinned to those bits.
"""

from __future__ import annotations

import numpy as np

#: Operations per pair force in the paper's cost accounting.
PAIR_FLOPS = 70.0

#: Elements per 2-D plane of a tile of the pairwise kernels: a tile spans
#: every source and ``PLANE // n_s`` targets, so the force kernel's five
#: float64 planes (1.3 MB) stay in a 2 MB L2 at any block size, and a
#: block of up to 181 particles is one tile.
PLANE = 32_768


def accelerations_from_sources(
    target_pos: np.ndarray,
    source_pos: np.ndarray,
    source_mass: np.ndarray,
    G: float = 1.0,
    softening: float = 0.01,
    exclude_self_pairs: bool = False,
) -> np.ndarray:
    """Acceleration on each target due to all source particles.

    Parameters
    ----------
    target_pos:
        (n_t, 3) target positions.
    source_pos:
        (n_s, 3) source positions.
    source_mass:
        (n_s,) source masses.
    G:
        Gravitational constant.
    softening:
        Plummer softening length ε (> 0 keeps close encounters finite).
    exclude_self_pairs:
        Set True when targets and sources are the *same* particles (in
        the same order): zero-distance pairs are excluded from the sum.

    Returns
    -------
    (n_t, 3) accelerations.
    """
    tp = np.asarray(target_pos, dtype=float)
    sp = np.asarray(source_pos, dtype=float)
    sm = np.asarray(source_mass, dtype=float)
    if tp.ndim != 2 or tp.shape[1] != 3:
        raise ValueError(f"target_pos must be (n, 3), got {tp.shape}")
    if sp.ndim != 2 or sp.shape[1] != 3:
        raise ValueError(f"source_pos must be (n, 3), got {sp.shape}")
    if sm.shape != (sp.shape[0],):
        raise ValueError("source_mass must match source_pos length")
    if softening < 0:
        raise ValueError("softening must be >= 0")
    if exclude_self_pairs and tp.shape != sp.shape:
        raise ValueError("exclude_self_pairs requires identical target/source shapes")
    if tp.size == 0 or sp.size == 0:
        return np.zeros_like(tp)

    n_t, n_s = tp.shape[0], sp.shape[0]
    if n_t == 1:
        # Widen: numpy sums a one-column plane pairwise, not in source order.
        tp = np.repeat(tp, 2, axis=0)
    targets = np.ascontiguousarray(tp.T)[:, None, :]
    sources = np.ascontiguousarray(sp.T)[:, :, None]
    sm = sm[:, None]
    eps2 = softening**2
    width = targets.shape[2]
    tile = max(PLANE // n_s, 2)
    # Source-major (n_s, tile) planes, reused by every tile: the three
    # components of the separation, the pair weight, and a square.
    planes = np.empty((5, n_s, min(tile, width)))
    out = np.empty((3, width))
    for lo in range(0, width, tile):
        lo = min(lo, width - 2)  # a last tile one target wide overlaps its neighbour
        hi = min(lo + tile, width)
        tiled = planes[:, :, : hi - lo]
        d, w, sq = tiled[:3], tiled[3], tiled[4]
        # d[:, j, i] = r_j - r_i
        np.subtract(sources, targets[:, :, lo:hi], out=d)
        # dist2 = ((dx² + dz²) + dy²) + ε², in that association.
        np.multiply(d[0], d[0], out=w)
        np.multiply(d[2], d[2], out=sq)
        w += sq
        np.multiply(d[1], d[1], out=sq)
        w += sq
        w += eps2
        # With zero softening the self-pair distance is exactly zero; the
        # resulting inf is discarded when the diagonal is cleared below.
        with np.errstate(divide="ignore"):
            np.power(w, -1.5, out=w)
        if exclude_self_pairs:
            own = np.arange(lo, hi)
            w[own % n_t, own - lo] = 0.0  # % n_t: the widened column is target 0 again
        w *= sm
        # a_i = G sum_j (m_j / d^3) delta_ij, sources added in index order from 0.0
        d *= w
        np.add.reduce(d, axis=1, initial=0.0, out=out[:, lo:hi])
    return G * np.ascontiguousarray(out.T[:n_t])


def accelerations(
    pos: np.ndarray,
    mass: np.ndarray,
    G: float = 1.0,
    softening: float = 0.01,
) -> np.ndarray:
    """Self-consistent accelerations of a whole system (N×N pairs)."""
    return accelerations_from_sources(
        pos, pos, mass, G=G, softening=softening, exclude_self_pairs=True
    )


def potential_energy(
    pos: np.ndarray,
    mass: np.ndarray,
    G: float = 1.0,
    softening: float = 0.01,
) -> float:
    """Total softened gravitational potential energy (each pair once)."""
    p = np.asarray(pos, dtype=float)
    m = np.asarray(mass, dtype=float)
    if p.shape[0] < 2:
        return 0.0
    delta = p[None, :, :] - p[:, None, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta) + softening**2)
    with np.errstate(divide="ignore"):
        inv = 1.0 / dist
    np.fill_diagonal(inv, 0.0)
    return float(-0.5 * G * np.einsum("i,j,ij->", m, m, inv))
