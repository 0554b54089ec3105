"""Barnes–Hut O(N log N) gravity.

The paper's footnote: "A more efficient O(N log N) is possible and has
been implemented in the past [4].  Our objective here, however, is to
illustrate the effectiveness of speculative computation, and the
simpler O(N²) implementation is employed."  This module supplies that
more efficient algorithm as an optional force backend, enabling the
ablation the paper skipped: cheaper computation raises the
*communication fraction*, which raises speculation's relative value.

Implementation: a standard octree with monopole (center-of-mass)
approximation and the ``s/d < θ_bh`` opening criterion, evaluated with
a vectorised group traversal — each tree node processes all targets
that accept it in one numpy operation.  Self-interaction vanishes
automatically because the pair force is proportional to the separation
vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: Default opening angle; 0 degenerates to exact direct summation.
DEFAULT_OPENING_ANGLE = 0.5
#: Cost-model flops per accepted node-target monopole interaction.
NODE_FLOPS = 70.0
#: Most particles a leaf keeps before it splits.
LEAF_SIZE = 8


@dataclass
class _Node:
    """One octree node (internal or leaf)."""

    center: np.ndarray
    half: float
    #: Indices of the particles inside (leaves only keep <= LEAF_SIZE).
    indices: np.ndarray
    mass: float = 0.0
    com: np.ndarray = field(default_factory=lambda: np.zeros(3))
    children: list = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class Octree:
    """Octree over a static set of particles.

    Parameters
    ----------
    pos / mass:
        (n, 3) positions, (n,) masses.

    A leaf keeps at most :data:`LEAF_SIZE` particles before it splits.
    """

    def __init__(self, pos: np.ndarray, mass: np.ndarray) -> None:
        self.pos = np.asarray(pos, dtype=float)
        self.mass = np.asarray(mass, dtype=float)
        if self.pos.ndim != 2 or self.pos.shape[1] != 3:
            raise ValueError("pos must be (n, 3)")
        if self.mass.shape != (self.pos.shape[0],):
            raise ValueError("mass must match pos length")
        n = self.pos.shape[0]
        if n == 0:
            self.root: Optional[_Node] = None
            self.node_count = 0
            return
        lo = self.pos.min(axis=0)
        hi = self.pos.max(axis=0)
        center = 0.5 * (lo + hi)
        half = float(max((hi - lo).max() / 2.0, 1e-12)) * 1.0001
        self.node_count = 0
        self.root = self._build(np.arange(n, dtype=np.intp), center, half, depth=0)

    def _build(self, indices: np.ndarray, center: np.ndarray, half: float, depth: int) -> _Node:
        node = _Node(center=center, half=half, indices=indices)
        self.node_count += 1
        m = self.mass[indices]
        node.mass = float(m.sum())
        node.com = (m[:, None] * self.pos[indices]).sum(axis=0) / node.mass
        # Depth cap guards against coincident particles.
        if len(indices) <= LEAF_SIZE or depth >= 48:
            return node
        p = self.pos[indices]
        octant = (
            (p[:, 0] >= center[0]).astype(np.intp)
            + 2 * (p[:, 1] >= center[1]).astype(np.intp)
            + 4 * (p[:, 2] >= center[2]).astype(np.intp)
        )
        quarter = half / 2.0
        for o in range(8):
            sub = indices[octant == o]
            if sub.size == 0:
                continue
            offset = np.array(
                [
                    quarter if o & 1 else -quarter,
                    quarter if o & 2 else -quarter,
                    quarter if o & 4 else -quarter,
                ]
            )
            node.children.append(
                self._build(sub, center + offset, quarter, depth + 1)
            )
        return node


def bh_accelerations(
    target_pos: np.ndarray,
    tree: Octree,
    G: float = 1.0,
    softening: float = 0.01,
    opening_angle: float = DEFAULT_OPENING_ANGLE,
) -> tuple[np.ndarray, int]:
    """Accelerations on targets from the tree's particles.

    Returns ``(accelerations, interactions)`` where ``interactions``
    counts the node–target and particle–target terms evaluated — the
    measured work for the cost model.

    ``opening_angle = 0`` forces full opening (exact direct summation).
    """
    tp = np.asarray(target_pos, dtype=float)
    if tp.ndim != 2 or tp.shape[1] != 3:
        raise ValueError("target_pos must be (n, 3)")
    if opening_angle < 0:
        raise ValueError("opening_angle must be >= 0")
    out = np.zeros_like(tp)
    if tree.root is None or tp.shape[0] == 0:
        return out, 0
    eps2 = softening * softening
    interactions = 0

    def visit(node: _Node, idx: np.ndarray) -> None:
        nonlocal interactions
        delta = node.com[None, :] - tp[idx]
        dist2 = np.einsum("ij,ij->i", delta, delta)
        size = 2.0 * node.half
        if node.is_leaf:
            # Direct sum over the leaf's particles for everyone here.
            src = tree.pos[node.indices]
            sm = tree.mass[node.indices]
            d = src[None, :, :] - tp[idx][:, None, :]
            d2 = np.einsum("ijk,ijk->ij", d, d) + eps2
            with np.errstate(divide="ignore"):
                inv = d2 ** (-1.5)
            # A target coinciding with a source contributes d = 0, so
            # its term vanishes; only unsoftened exact overlaps need the
            # explicit zero to avoid inf * 0.
            inv[d2 == 0.0] = 0.0
            out[idx] += G * np.einsum("ij,j,ijk->ik", inv, sm, d)
            interactions += idx.size * node.indices.size
            return
        # Monopole acceptance: s / d < theta  <=>  d > s / theta.
        if opening_angle > 0:
            accept = dist2 > (size / opening_angle) ** 2
        else:
            accept = np.zeros(idx.size, dtype=bool)
        if np.any(accept):
            a_idx = idx[accept]
            d = node.com[None, :] - tp[a_idx]
            d2 = np.einsum("ij,ij->i", d, d) + eps2
            out[a_idx] += G * node.mass * d / (d2 ** 1.5)[:, None]
            interactions += a_idx.size
        rest = idx[~accept]
        if rest.size:
            for child in node.children:
                visit(child, rest)

    visit(tree.root, np.arange(tp.shape[0], dtype=np.intp))
    return out, interactions

