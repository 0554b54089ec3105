"""Globally coupled Kuramoto phase oscillators.

Each oscillator's phase advances at its natural frequency plus a
mean-field coupling term::

    θ_i(t+1) = θ_i(t) + Δt [ ω_i + K·R(t)·sin(ψ(t) − θ_i(t)) ]

where R e^{iψ} = (1/N) Σ e^{iθ_j} is the order parameter.  Phases
drift almost linearly (rate ≈ ω_i), making linear extrapolation an
excellent speculation function — the "slowly changing trend" the
paper identifies as the sweet spot for speculative computation.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.program import SyncIterativeProgram
from repro.core.speculators import LinearExtrapolation
from repro.partition import proportional_partition


class KuramotoProgram(SyncIterativeProgram):
    """Kuramoto dynamics as a SyncIterativeProgram.

    Parameters
    ----------
    omega:
        (n,) natural frequencies.
    theta0:
        (n,) initial phases.
    capacities:
        Per-processor capacities; oscillators allocated proportionally.
    iterations:
        Euler steps.
    coupling:
        Coupling strength K.
    dt:
        Step size.
    threshold:
        Acceptance threshold on the max absolute phase error of a
        speculated block (radians).
    """

    def __init__(
        self,
        omega: np.ndarray,
        theta0: np.ndarray,
        capacities: Sequence[float],
        iterations: int,
        coupling: float = 1.0,
        dt: float = 0.01,
        threshold: float = 1e-3,
        speculator=None,
    ) -> None:
        super().__init__(
            nprocs=len(capacities),
            iterations=iterations,
            threshold=threshold,
            speculator=speculator if speculator is not None else LinearExtrapolation(),
        )
        self.omega = np.asarray(omega, dtype=float)
        theta = np.asarray(theta0, dtype=float)
        if self.omega.ndim != 1 or theta.shape != self.omega.shape:
            raise ValueError("omega and theta0 must be matching 1-D arrays")
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.theta0 = theta
        self.coupling = coupling
        self.dt = dt
        self.partition = proportional_partition(self.omega.shape[0], capacities)

    @classmethod
    def random(
        cls,
        n: int,
        capacities: Sequence[float],
        iterations: int,
        seed: int = 0,
        **kwargs,
    ) -> "KuramotoProgram":
        """Random frequencies ~ N(1, 0.1) and phases ~ U[0, 2π)."""
        rng = np.random.default_rng(seed)
        omega = rng.normal(1.0, 0.1, size=n)
        theta0 = rng.uniform(0.0, 2 * np.pi, size=n)
        return cls(omega, theta0, capacities, iterations, **kwargs)

    # ----------------------------------------------------------- numerics
    def initial_block(self, rank: int) -> np.ndarray:
        return self.theta0[self.partition.indices(rank)].copy()

    def _order_parameter(self, inputs: Mapping[int, np.ndarray]) -> complex:
        total = 0.0 + 0.0j
        for rank in range(self.nprocs):
            total += np.exp(1j * inputs[rank]).sum()
        return total / self.partition.n

    def compute(self, rank: int, inputs: Mapping[int, np.ndarray], t: int) -> np.ndarray:
        theta = inputs[rank]
        z = self._order_parameter(inputs)
        r, psi = np.abs(z), np.angle(z)
        idx = self.partition.indices(rank)
        drift = self.omega[idx] + self.coupling * r * np.sin(psi - theta)
        return theta + self.dt * drift

    # --------------------------------------------------------- cost model
    def compute_ops(self, rank: int) -> float:
        # Order parameter: ~8 flops per oscillator in the system, plus
        # ~12 flops per owned oscillator for the update.
        return 8.0 * self.partition.n + 12.0 * len(self.partition.indices(rank))

    def speculate_ops(self, rank: int, k: int) -> float:
        return 4.0 * len(self.partition.indices(k))

    def check_ops(self, rank: int, k: int) -> float:
        return 2.0 * len(self.partition.indices(k))

    def block_nbytes(self, rank: int) -> int:
        return 8 * len(self.partition.indices(rank)) + 32

    # ---------------------------------------------------------- reporting
    def gather(self, blocks: Mapping[int, np.ndarray]) -> np.ndarray:
        """Reassemble the global phase vector."""
        theta = np.empty(self.partition.n)
        for rank, idx in enumerate(self.partition):
            theta[idx] = blocks[rank]
        return theta

    def reference(self) -> np.ndarray:
        """Serial ground truth after ``iterations`` steps."""
        theta = self.theta0.copy()
        for _ in range(self.iterations):
            z = np.exp(1j * theta).mean()
            r, psi = np.abs(z), np.angle(z)
            theta = theta + self.dt * (self.omega + self.coupling * r * np.sin(psi - theta))
        return theta

    def synchrony(self, theta: np.ndarray) -> float:
        """Order-parameter magnitude R ∈ [0, 1] of a phase vector."""
        return float(np.abs(np.exp(1j * theta).mean()))
