"""Vectorized all-pairs gravitational forces.

Direct O(N²) summation with Plummer softening::

    a_i = G · Σ_j m_j (r_j − r_i) / (|r_j − r_i|² + ε²)^{3/2}

The paper counts "about 70 floating point operations" per pair force;
:data:`PAIR_FLOPS` carries that constant into the cost model so virtual
times match the paper's accounting even though numpy executes far
fewer visible Python operations.

The kernel works on 2-D component planes — a chunk of sources by every
target, :data:`PLANE` elements of each — whose operands are all
contiguous, and spells out its arithmetic in a fixed association, so the
result is defined bit for bit by this file (DESIGN.md §5.8) — the
drivers' golden traces and Fig. 8 are pinned to those bits.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

#: Operations per pair force in the paper's cost accounting.
PAIR_FLOPS = 70.0

#: Elements per 2-D plane of a chunk of the pairwise kernels: a chunk spans
#: ``PLANE // n_t`` sources and every target, so the force kernel's eight
#: float64 planes (1 MB) stay in L2 at any block size, and up to 128
#: sources on as many targets are one chunk.  16 k-24 k measure alike;
#: 8 k and 32 k are 4-10 % slower (ROADMAP "Settled").
PLANE = 16_384


def accelerations_by_block(
    target_pos: np.ndarray,
    blocks: Sequence[tuple[np.ndarray, np.ndarray]],
    G: float = 1.0,
    softening: float = 0.01,
    self_block: Optional[int] = None,
    nearest: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Acceleration on each target due to each block of source particles.

    One pass over the concatenated sources, sharing the target planes,
    with one sum per block: ``result[k]`` is bit for bit what
    :func:`accelerations_from_sources` returns for ``blocks[k]`` alone.

    Parameters
    ----------
    target_pos:
        (n_t, 3) target positions.
    blocks:
        ``(source_pos, source_mass)`` pairs, (n_k, 3) and (n_k,).
    G:
        Gravitational constant.
    softening:
        Plummer softening length ε (> 0 keeps close encounters finite).
    self_block:
        Index of the block that holds the *same* particles as the
        targets (in the same order): its zero-distance pairs are
        excluded from the sum.
    nearest:
        Optional ``(n_s,)`` output, one entry per source of the blocks
        in order: the minimum over the targets of the unsoftened squared
        separation ``(dx² + dz²) + dy²`` (``inf`` with no targets).  It
        is read off the plane the pair weights are made in, so the
        accelerations are the same bits with it or without it.

    Returns
    -------
    (len(blocks), n_t, 3) accelerations.
    """
    tp = np.asarray(target_pos, dtype=float)
    if tp.ndim != 2 or tp.shape[1] != 3:
        raise ValueError(f"target_pos must be (n, 3), got {tp.shape}")
    if softening < 0:
        raise ValueError("softening must be >= 0")
    pos, mass, ends = [], [], []
    n_s = 0
    for sp, sm in blocks:
        sp = np.asarray(sp, dtype=float)
        sm = np.asarray(sm, dtype=float)
        if sp.ndim != 2 or sp.shape[1] != 3:
            raise ValueError(f"source_pos must be (n, 3), got {sp.shape}")
        if sm.shape != (sp.shape[0],):
            raise ValueError("source_mass must match source_pos length")
        pos.append(sp)
        mass.append(sm)
        n_s += sm.shape[0]
        ends.append(n_s)
    if self_block is not None and pos[self_block].shape != tp.shape:
        raise ValueError("the self block must have the targets' shape")
    if nearest is not None and nearest.shape != (n_s,):
        raise ValueError(f"nearest must be ({n_s},), got {nearest.shape}")
    if tp.size == 0 or n_s == 0:
        if nearest is not None:
            nearest.fill(np.inf)
        return np.zeros((len(pos),) + tp.shape)

    n_t = tp.shape[0]
    if n_t == 1:
        # Widen: numpy sums a one-column plane pairwise, not in source order.
        tp = np.repeat(tp, 2, axis=0)
    targets = np.ascontiguousarray(tp.T)
    sources = (np.concatenate(pos) if len(pos) > 1 else pos[0]).T[:, :, None]
    masses = (np.concatenate(mass) if len(mass) > 1 else mass[0])[:, None]
    eps2 = softening**2
    width = targets.shape[1]
    tile = min(width, PLANE)  # targets per tile: all of them, short of absurd n_t
    rows = min(max(PLANE // tile, 1), n_s)
    # A block that outgrows a chunk hands its sum so far to the next chunk
    # in a spare row 0 of the separation planes, ahead of that chunk's
    # sources; a call of one chunk has no such row and contiguous planes.
    carry = int(rows < n_s)
    # (rows, tile) planes, reused by every chunk: the three components of
    # the separation, the pair weight, a square (then the masses), and the
    # targets repeated down the rows so that no operand is a broadcast.
    planes = np.empty((8, carry + rows, tile))
    sums = np.empty((len(pos), 3, width))
    for t_lo in range(0, width, tile):
        t_lo = min(t_lo, width - 2)  # a last tile one target wide overlaps its neighbour
        t_hi = min(t_lo + tile, width)
        cols = t_hi - t_lo
        planes[5:, :rows, :cols] = targets[:, None, t_lo:t_hi]
        lo = k = 0  # the next source, and the block it belongs to
        resumed = False  # block k began in an earlier chunk
        while lo < n_s:
            # A chunk is a piece of one block, or the rest of one and every
            # whole block after it that fits.
            first = k
            hi = lo + rows
            if hi >= ends[k]:
                while k + 1 < len(ends) and ends[k + 1] <= hi:
                    k += 1
                hi = ends[k]
            n = hi - lo
            d = planes[:3, carry : carry + n, :cols]
            w, sq = planes[3, :n, :cols], planes[4, :n, :cols]
            # d[:, j, i] = r_j - r_i, both operands contiguous
            np.copyto(d, sources[:, lo:hi])
            np.subtract(d, planes[5:, :n, :cols], out=d)
            # dist2 = ((dx² + dz²) + dy²) + ε², in that association.
            np.square(d[0], out=w)
            np.square(d[2], out=sq)
            w += sq
            np.square(d[1], out=sq)
            w += sq
            if nearest is not None:
                # A reduceat over the rows of the flat plane is about twice
                # as fast as an axis-1 reduce on planes a few dozen wide.
                flat = np.ascontiguousarray(w).reshape(-1)  # a copy in a narrower last tile only
                starts = np.arange(0, n * cols, cols)
                seg = nearest[lo:hi]
                if t_lo == 0:
                    np.minimum.reduceat(flat, starts, out=seg)
                else:  # fold in the earlier tiles' minima
                    np.minimum(seg, np.minimum.reduceat(flat, starts), out=seg)
            w += eps2
            if eps2:  # entering an errstate is 1 us, a 62 x 30 call 32
                np.power(w, -1.5, out=w)
            else:
                # The self-pair distance is exactly zero; the resulting inf is
                # discarded when the diagonal is cleared below.
                with np.errstate(divide="ignore"):
                    np.power(w, -1.5, out=w)
            if self_block is not None:
                s0 = ends[self_block] - n_t  # source s0 + i is target i
                a, c = max(lo, s0 + t_lo), min(hi, s0 + min(t_hi, n_t))
                if a < c:  # this chunk and tile hold self pairs
                    own = np.arange(a, c)
                    w[own - lo, own - (s0 + t_lo)] = 0.0
                    if n_t == 1:
                        w[own - lo, 1] = 0.0  # the widened column is target 0 again
            np.copyto(sq, masses[lo:hi])
            w *= sq
            # a_i = G sum_j (m_j / d^3) delta_ij, each block's sources added in
            # index order from 0.0 (0.0 + a sum so far is that sum: it is never -0.0)
            d *= w
            r0 = carry
            if resumed:
                planes[:3, 0, :cols] = sums[first, :, t_lo:t_hi]
                r0 = 0
            for b in range(first, k + 1):
                r1 = carry + min(ends[b], hi) - lo
                np.add.reduce(
                    planes[:3, r0:r1, :cols], axis=1, initial=0.0, out=sums[b, :, t_lo:t_hi]
                )
                r0 = r1
            resumed = hi < ends[k]
            if not resumed:
                k += 1
            lo = hi
    return G * np.ascontiguousarray(sums.transpose(0, 2, 1)[:, :n_t])


def accelerations_from_sources(
    target_pos: np.ndarray,
    source_pos: np.ndarray,
    source_mass: np.ndarray,
    G: float = 1.0,
    softening: float = 0.01,
    exclude_self_pairs: bool = False,
) -> np.ndarray:
    """Acceleration on each target due to all source particles.

    The one-block case of :func:`accelerations_by_block`.

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
    return accelerations_by_block(
        target_pos,
        [(source_pos, source_mass)],
        G=G,
        softening=softening,
        self_block=0 if exclude_self_pairs else None,
    )[0]


def squared_separations(d: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``|rows_j − cols_i|²`` on component planes, as ``(dx² + dz²) + dy²``.

    ``d`` is ``(3, n, m)`` scratch, ``rows`` ``(3, n, 1)`` and ``cols``
    ``(3, n, m)`` with every row the same (so that no ufunc operand is a
    broadcast); returns ``d[0]``, overwritten with the result.
    """
    np.copyto(d, rows)
    np.subtract(d, cols, out=d)
    np.square(d, out=d)
    d2 = d[0]
    d2 += d[2]
    d2 += d[1]
    return d2


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
    """Total softened gravitational potential energy (each pair once).

    A diagnostic, not part of any pinned result: it runs on the force
    kernel's chunked planes (no ``(n, n, 3)`` temporary) and leaves the
    order of the pair sum to BLAS, so it is reproducible to about 1e-12
    relative, not bit for bit.
    """
    p = np.asarray(pos, dtype=float)
    m = np.asarray(mass, dtype=float)
    n = p.shape[0]
    if n < 2:
        return 0.0
    eps2 = softening**2
    rows = min(max(PLANE // n, 1), n)
    planes = np.empty((6, rows, n))
    planes[3:] = p.T[:, None, :]
    total = 0.0
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        dist = squared_separations(
            planes[:3, : hi - lo], p.T[:, lo:hi, None], planes[3:, : hi - lo]
        )
        dist += eps2
        np.sqrt(dist, out=dist)
        own = np.arange(lo, hi)
        dist[own - lo, own] = np.inf  # 1 / inf: no self energy
        with np.errstate(divide="ignore"):  # coincident pairs at zero softening
            np.reciprocal(dist, out=dist)
        total += m[lo:hi] @ (dist @ m)
    return float(-0.5 * G * total)
