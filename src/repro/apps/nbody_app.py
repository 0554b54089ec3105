"""The paper's case study: parallel O(N²) N-body with speculation.

Each simulated processor owns a block of particles (allocated
proportionally to its capacity, as in the paper).  Per iteration it:

1. sends its particles' positions and velocities to every other
   processor (the block payload is an ``(n_k, 6)`` array: columns
   0–2 position, 3–5 velocity);
2. speculates the positions of particles whose messages are late using
   Eq. 10 (constant velocity over the gap);
3. computes the resultant force on its own particles from *all*
   particles and advances them one semi-implicit Euler step;
4. on arrival of a late message, checks each speculated particle with
   the Eq. 11 pairwise ratio against θ and — exactly and
   incrementally — corrects the contribution of the particles that
   failed the check.

Cost model (paper, Section 5): 70 flops per pair force, 12 flops to
speculate a particle, 24 to check one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.program import SyncIterativeProgram
from repro.core.receive_driven import IncrementalProgram
from repro.nbody.barneshut import NODE_FLOPS, Octree, bh_accelerations
from repro.nbody.forces import (
    PAIR_FLOPS,
    accelerations_by_block,
    accelerations_from_sources,
)
from repro.nbody.integrators import simulate
from repro.nbody.particles import ParticleSystem
from repro.nbody.speculation import (
    CHECK_FLOPS_PER_PARTICLE,
    SPECULATE_FLOPS_PER_PARTICLE,
    pairwise_error_ratios,
    speculate_positions,
    uncertified,
)
from repro.partition import proportional_partition

#: Extra flops per owned particle for the velocity/position update.
INTEGRATE_FLOPS = 12.0


@dataclass
class NBodySpecStats:
    """Particle-granularity speculation statistics (for Table 3).

    The driver counts block-level accept/reject; the paper reports
    *per-particle* figures, which the application accumulates here.
    """

    particles_checked: int = 0
    particles_rejected: int = 0
    #: Largest relative pair-force error among *accepted* speculations.
    max_accepted_force_error: float = 0.0

    @property
    def incorrect_fraction(self) -> float:
        """Paper Table 3's "Incorrect speculations" column."""
        if self.particles_checked == 0:
            return 0.0
        return self.particles_rejected / self.particles_checked


class NBodyProgram(IncrementalProgram):
    """N-body simulation as a :class:`SyncIterativeProgram`.

    Parameters
    ----------
    system:
        Initial particle system (the global X(0)).
    capacities:
        Per-processor capacities M_i; particles are allocated
        proportionally (Eq. 4–5).  Length defines nprocs.
    iterations:
        Number of timesteps.
    dt:
        Timestep size Δt.
    threshold:
        The Eq. 11 acceptance threshold θ (paper uses 0.01).
    record_force_errors:
        Also measure the relative pair-force error of accepted
        speculations (Table 3's last column).  Costs one extra
        pair-force evaluation per checked particle.
    incremental_correction:
        Repair rejected speculations by re-summing only the offending
        particles' contributions (True; exact for those particles, and
        O(n_bad · n_own) cheap), or by recomputing the whole block from
        the actual values (False, the naive "recomputes its variables"
        option the paper mentions; also removes the sub-threshold
        errors of *accepted* particles in that block, at full
        compute cost).
    force_method:
        ``"direct"`` — the paper's O(N²) summation.  ``"barnes_hut"`` —
        the O(N log N) alternative of the paper's footnote 1, with
        opening angle ``bh_theta``; the cost model then charges the
        *measured* interaction count of the last tree traversal.
        Barnes–Hut mode keeps the paper's *direct* pair-force
        speculation corrections (exact for the corrected pairs; the
        monopole approximation error is unaffected) and does not
        support the Fig. 7 receive-driven decomposition (the tree
        needs all blocks at once).
    """

    def __init__(
        self,
        system: ParticleSystem,
        capacities: Sequence[float],
        iterations: int,
        dt: float = 0.01,
        threshold: float = 0.01,
        record_force_errors: bool = False,
        incremental_correction: bool = True,
        force_method: str = "direct",
        bh_theta: float = 0.5,
    ) -> None:
        super().__init__(nprocs=len(capacities), iterations=iterations, threshold=threshold)
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.system = system.copy()
        self.dt = dt
        self.record_force_errors = record_force_errors
        self.incremental_correction = incremental_correction
        if force_method not in ("direct", "barnes_hut"):
            raise ValueError(f"unknown force_method {force_method!r}")
        if bh_theta < 0:
            raise ValueError("bh_theta must be >= 0")
        self.force_method = force_method
        self.bh_theta = bh_theta
        #: Interactions evaluated by the most recent Barnes-Hut
        #: traversal per rank (drives the measured cost model).
        self._bh_last_interactions = [0] * self.nprocs
        self.partition = proportional_partition(system.n, capacities)
        #: Static per-rank mass arrays (masses never change; every rank
        #: knows all of them from the initial distribution).
        self.masses = [self.system.mass[idx] for idx in self.partition]
        #: Where each rank's block starts among all particles, in rank order.
        self._starts = np.cumsum([0] + [len(m) for m in self.masses]).tolist()
        self._blocks0 = [
            np.hstack([self.system.pos[idx], self.system.vel[idx]])
            for idx in self.partition
        ]
        self.spec_stats = NBodySpecStats()
        #: rank -> ``[speculated, actual, own, bad]`` per check that
        #: rejected, held until that rank's ``correct`` takes it (one
        #: program object serves every rank on DES and loopback).
        self._rejected: dict[int, list[list[np.ndarray]]] = {}
        #: rank -> {k: block} of what ``speculate`` made for that rank's
        #: next ``compute``.
        self._speculated: dict[int, dict[int, np.ndarray]] = {}
        #: (rank, k) -> {t: (speculated, own, nearest2)}: ``compute``'s
        #: nearest squared separation of each speculated particle to the
        #: own block, held until the check of that speculation takes it.
        self._nearest: dict[tuple[int, int], dict[int, tuple[np.ndarray, ...]]] = {}

    # ----------------------------------------------------------- numerics
    def initial_block(self, rank: int) -> np.ndarray:
        return self._blocks0[rank]

    def compute(self, rank: int, inputs: Mapping[int, np.ndarray], t: int) -> np.ndarray:
        speculated = self._speculated.pop(rank, None)
        if self.force_method == "barnes_hut":
            return self._compute_barnes_hut(rank, inputs, t)
        own = inputs[rank]
        # The blocks this rank just speculated get each particle's nearest
        # own particle, read off the force planes, for check's bound.
        fresh = [k for k, block in speculated.items() if inputs[k] is block] if speculated else ()
        nearest = np.empty(self.system.n) if fresh else None
        by_block = accelerations_by_block(
            own[:, :3],
            [(inputs[k][:, :3], self.masses[k]) for k in range(self.nprocs)],
            G=self.system.G,
            softening=self.system.softening,
            self_block=rank,
            nearest=nearest,
        )
        for k in fresh:
            lo, hi = self._starts[k], self._starts[k + 1]
            self._nearest.setdefault((rank, k), {})[t] = (inputs[k], own, nearest[lo:hi])
        accel = by_block[rank]
        for k in range(self.nprocs):
            if k != rank:
                accel += by_block[k]
        return self._step(own, accel)

    def _step(self, own: np.ndarray, accel: np.ndarray) -> np.ndarray:
        """One semi-implicit Euler step of a block: v += a·Δt, then x += v·Δt."""
        block = np.empty_like(own)
        new_pos, new_vel = block[:, :3], block[:, 3:]
        np.multiply(accel, self.dt, out=new_vel)
        new_vel += own[:, 3:]
        np.multiply(new_vel, self.dt, out=new_pos)
        new_pos += own[:, :3]
        return block

    def _compute_barnes_hut(self, rank: int, inputs: Mapping[int, np.ndarray], t: int) -> np.ndarray:
        own = inputs[rank]
        own_pos = own[:, :3]
        all_pos = np.vstack([inputs[k][:, :3] for k in range(self.nprocs)])
        all_mass = np.concatenate([self.masses[k] for k in range(self.nprocs)])
        tree = Octree(all_pos, all_mass)
        accel, interactions = bh_accelerations(
            own_pos,
            tree,
            G=self.system.G,
            softening=self.system.softening,
            opening_angle=self.bh_theta,
        )
        self._bh_last_interactions[rank] = interactions
        return self._step(own, accel)

    def speculate(self, rank, k, times, values, target):
        """Eq. 10 over the history gap: r* = r + v·(gap·Δt), v* = v."""
        last = values[-1]
        gap = target - times[-1]
        block = np.empty_like(last)
        block[:, :3] = speculate_positions(last[:, :3], last[:, 3:], gap * self.dt)
        block[:, 3:] = last[:, 3:]
        self._speculated.setdefault(rank, {})[k] = block
        return block

    def check(self, rank, k, speculated, actual, own):
        """Worst Eq. 11 ratio over k's particles vs. our particles.

        Exact whenever it exceeds θ; otherwise a bound ≤ θ (θ itself
        when some particle was certified rather than measured).  The
        rejected count and the mask of bad particles handed to
        ``correct`` are exact either way.

        ``compute`` leaves the nearest squared separation of each
        particle it was handed speculated to the own block; for these
        very ``speculated`` and ``own`` arrays that certifies most
        particles without a pairwise pass (:func:`uncertified`).  The
        pass runs on the rest only: on every particle when there is no
        bound (Barnes–Hut, an ``own`` corrected since ``compute``, a
        direct call).
        """
        sp, ap = speculated[:, :3], actual[:, :3]
        theta, n = self.threshold, len(speculated)
        nearest2 = self._take_nearest(rank, k, speculated, own)
        rows = slice(None) if nearest2 is None else uncertified(sp, ap, nearest2, theta)
        ratios = pairwise_error_ratios(sp[rows], ap[rows], own[:, :3])
        over = ratios > theta
        self.spec_stats.particles_checked += n
        self.spec_stats.particles_rejected += int(np.count_nonzero(over))
        if self.record_force_errors and n:
            accepted = np.ones(n, dtype=bool)
            accepted[rows] = ratios <= theta
            self._record_force_errors(speculated, actual, own, accepted)
        worst = float(ratios.max()) if ratios.size else 0.0
        if worst > theta:
            bad = np.zeros(n, dtype=bool)
            bad[rows] = over
            self._rejected.setdefault(rank, []).append([speculated, actual, own, bad])
        elif ratios.size < n:
            worst = max(worst, theta)  # the certified rows' bound; a NaN stays NaN
        return worst

    def _take_nearest(self, rank, k, speculated, own):
        """``compute``'s nearest squared separations for ``speculated``
        (taken: each speculation is checked once), or None when there are
        none or ``own`` is not the block they were measured against."""
        held = self._nearest.get((rank, k))
        if held is None:
            return None
        for t, (block, seen_own, nearest2) in held.items():
            if block is speculated:
                del held[t]
                if not held:
                    del self._nearest[rank, k]
                return nearest2 if seen_own is own else None
        return None

    def _held(self, rank, speculated, actual, take=False):
        """The rejecting check's ``[speculated, actual, own, bad]`` for
        these very arrays (removed with ``take``), or None."""
        held = self._rejected.get(rank, ())
        for i, entry in enumerate(held):
            if entry[0] is speculated and entry[1] is actual:
                if take:
                    del held[i]
                    if not held:
                        del self._rejected[rank]
                return entry
        return None

    def _mask(self, entry, speculated, actual, own):
        """Which of ``speculated``'s particles fail Eq. 11 against ``own``.

        The held mask holds only for the very ``own`` its check saw: the
        check is handed chain[t], the repair inputs_used[t][rank], and
        the two differ at fw >= 2 with cascade="none".
        """
        if entry is not None and entry[2] is own:
            return entry[3]
        return pairwise_error_ratios(speculated[:, :3], actual[:, :3], own[:, :3]) > self.threshold

    def correct_ops(self, rank, inputs, k, speculated, actual, t):
        """Two pair sums per rejected particle and own particle, plus the
        update (a full compute without ``incremental_correction``)."""
        if not self.incremental_correction:
            return self.compute_ops(rank)
        own = inputs[rank]
        entry = self._held(rank, speculated, actual)
        bad = self._mask(entry, speculated, actual, own)
        if entry is not None:
            entry[2:] = own, bad  # what the repair will be handed
        n_bad = int(np.count_nonzero(bad))
        if n_bad == 0:
            # Driver-level rejection implies at least one bad particle;
            # guard anyway (threshold exactly on the boundary).
            return 0.0
        return 2.0 * PAIR_FLOPS * n_bad * len(own) + 6.0 * len(own)

    def correct(self, rank, next_block, inputs, rejected, t):
        """Exact incremental correction of the rejected particles only.

        Semi-implicit Euler is linear in the acceleration, so replacing
        the contribution of the offending source particles repairs the
        block exactly:  Δa = a(actual_bad) − a(spec_bad);
        v ← v + Δa·Δt;  x ← x + Δa·Δt².  One kernel call sums every
        rejection's bad particles (each block's bits are those of a call
        on it alone), and the Δa are applied in rejection order.
        """
        own = inputs[rank]
        held = [self._held(rank, spec, act, take=True) for _, spec, act in rejected]
        if not self.incremental_correction:
            # Naive policy: recompute the whole block from scratch.
            return self.compute(rank, inputs, t)
        sources = []
        for (k, spec, act), entry in zip(rejected, held):
            bad = self._mask(entry, spec, act, own)
            if bad.any():
                bad_mass = self.masses[k][bad]
                sources += [(spec[bad, :3], bad_mass), (act[bad, :3], bad_mass)]
        if not sources:
            return next_block
        accel = accelerations_by_block(
            own[:, :3], sources, G=self.system.G, softening=self.system.softening
        )
        block = next_block.copy()
        vel, pos = block[:, 3:], block[:, :3]
        for a_spec, a_act in zip(accel[0::2], accel[1::2]):
            delta = a_act - a_spec
            delta *= self.dt
            vel += delta
            delta *= self.dt
            pos += delta
        return block

    def _record_force_errors(self, speculated, actual, own, accepted):
        """Relative pair-force error vs the nearest local particle."""
        if not np.any(accepted):
            return
        sp = speculated[accepted, :3]
        ap = actual[accepted, :3]
        own_pos = own[:, :3]
        # Nearest local particle for each accepted remote particle.
        delta = ap[:, None, :] - own_pos[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta))
        nearest = dist.argmin(axis=1)
        b = own_pos[nearest]
        eps2 = self.system.softening**2
        f_act = (ap - b) / ((np.sum((ap - b) ** 2, axis=1) + eps2) ** 1.5)[:, None]
        f_spec = (sp - b) / ((np.sum((sp - b) ** 2, axis=1) + eps2) ** 1.5)[:, None]
        norm = np.linalg.norm(f_act, axis=1)
        norm[norm == 0] = 1.0
        rel = np.linalg.norm(f_spec - f_act, axis=1) / norm
        worst = float(rel.max())
        if worst > self.spec_stats.max_accepted_force_error:
            self.spec_stats.max_accepted_force_error = worst

    # ------------------------------------------- incremental decomposition
    def begin(self, rank, own, t):
        """Accumulator = (own positions, intra-block acceleration)."""
        if self.force_method != "direct":
            raise NotImplementedError(
                "receive-driven decomposition requires the direct force method"
            )
        own_pos = own[:, :3]
        accel = accelerations_from_sources(
            own_pos,
            own_pos,
            self.masses[rank],
            G=self.system.G,
            softening=self.system.softening,
            exclude_self_pairs=True,
        )
        return (own_pos, accel)

    def absorb(self, rank, acc, k, block, t):
        """Add the acceleration contribution of block ``k``."""
        own_pos, accel = acc
        accel += accelerations_from_sources(
            own_pos,
            block[:, :3],
            self.masses[k],
            G=self.system.G,
            softening=self.system.softening,
        )
        return (own_pos, accel)

    def finish(self, rank, acc, own, t):
        """Integrate one semi-implicit Euler step from the summed forces."""
        _, accel = acc
        return self._step(own, accel)

    def begin_ops(self, rank: int) -> float:
        n_own = len(self.partition.indices(rank))
        return PAIR_FLOPS * n_own * n_own

    def absorb_ops(self, rank: int, k: int) -> float:
        n_own = len(self.partition.indices(rank))
        return PAIR_FLOPS * n_own * len(self.partition.indices(k))

    def finish_ops(self, rank: int) -> float:
        return INTEGRATE_FLOPS * len(self.partition.indices(rank))

    # --------------------------------------------------------- cost model
    def compute_ops(self, rank: int) -> float:
        n_own = len(self.partition.indices(rank))
        if self.force_method == "barnes_hut":
            # Measured cost of the most recent traversal, plus an
            # O(N log N / p) share of the tree build.
            interactions = self._bh_last_interactions[rank]
            if interactions == 0:  # before the first compute: estimate
                interactions = int(n_own * 40 * max(np.log2(self.system.n), 1.0))
            build = 12.0 * self.system.n * max(np.log2(self.system.n), 1.0)
            return NODE_FLOPS * interactions + build + INTEGRATE_FLOPS * n_own
        return PAIR_FLOPS * n_own * self.system.n + INTEGRATE_FLOPS * n_own

    def speculate_ops(self, rank: int, k: int) -> float:
        return SPECULATE_FLOPS_PER_PARTICLE * len(self.partition.indices(k))

    def check_ops(self, rank: int, k: int) -> float:
        return CHECK_FLOPS_PER_PARTICLE * len(self.partition.indices(k))

    def block_nbytes(self, rank: int) -> int:
        # 6 doubles per particle + a small header, as PVM would pack it.
        return 48 * len(self.partition.indices(rank)) + 64

    # ---------------------------------------------------------- reporting
    def gather(self, blocks: Mapping[int, np.ndarray]) -> ParticleSystem:
        """Reassemble the global particle system from final blocks."""
        pos = np.empty_like(self.system.pos)
        vel = np.empty_like(self.system.vel)
        for rank, idx in enumerate(self.partition):
            block = blocks[rank]
            pos[idx] = block[:, :3]
            vel[idx] = block[:, 3:]
        return ParticleSystem(
            mass=self.system.mass.copy(),
            pos=pos,
            vel=vel,
            G=self.system.G,
            softening=self.system.softening,
        )

    def reference(self) -> ParticleSystem:
        """Serial ground truth after ``iterations`` timesteps."""
        return simulate(self.system, dt=self.dt, steps=self.iterations, method="euler")
