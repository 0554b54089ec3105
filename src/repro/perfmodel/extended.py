"""Extended performance model: variance + forward/backward windows.

The paper's stated future work: *"developing a more sophisticated
performance model that accounts for variations in computation and
communication times of processors and different forward and backward
window sizes for speculation"*.  This module builds that model.

The steady-state pipeline of one (symmetric) processor is simulated as
a stochastic recurrence over iterations::

    F_t = S_t + O_s + C + O_v + penalty_t        (compute finishes)
    A_t = S_t + W_t                              (iteration-t messages arrive)
    S_t = max(F_{t-1}, A_{t-FW} + O_v)           (forward-window constraint)

with the Section-4 compute time ``C`` and per-iteration message-arrival
delays ``W_t`` drawn log-normally around the Section-4 value.  Without
that spread and without rejections this is the engine's pipelining
law, :func:`~repro.perfmodel.model.iteration_time`.
A speculated input that bridged a gap of ``g`` iterations is rejected
with probability ``p_rej(g) = min(1, k₁ · g^2 · κ(BW))`` — the gap²
law follows from constant-velocity extrapolation error growing as
(g·Δt)², and κ(BW) discounts rejections for higher-order speculation
on smooth trajectories.  Each rejection charges the correction cost.

The expected iteration time is estimated by a seeded Monte Carlo over
that recurrence (deterministic given the seed), which exposes the
FW/variance trade-off the paper anticipates: under heavy-tailed
communication delays the optimal forward window moves beyond 1 until
gap-driven rejections eat the gains — see :meth:`optimal_fw`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perfmodel.model import ModelParams, PerformanceModel, iteration_time

#: Simulated pipeline iterations per estimate (after warm-up).
MC_ITERATIONS = 4000


@dataclass(frozen=True)
class VariabilityParams:
    """Stochastic and window parameters layered on a :class:`ModelParams`.

    Attributes
    ----------
    comm_cv:
        Coefficient of variation of the per-iteration communication
        time (log-normal; 0 = the deterministic Section-4 model).
    k1:
        Rejection probability of a gap-1 speculation (the measured
        Table-3 operating point, e.g. 0.02 at θ = 0.01).
    bw_discount:
        κ(BW) = ``bw_discount ** (BW - 1)``: multiplicative reduction of
        the rejection probability per extra backward-window point
        (smooth trajectories reward higher-order extrapolation).
    correction_fraction:
        Cost of one correction as a fraction of a full compute phase
        (1.0 = full recomputation; the N-body incremental correction
        measures ≈ 2·N_k/N).
    """

    comm_cv: float = 0.0
    k1: float = 0.02
    bw_discount: float = 1.0
    correction_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.comm_cv < 0:
            raise ValueError("comm_cv must be >= 0")
        if not 0 <= self.k1 <= 1:
            raise ValueError("k1 must be in [0, 1]")
        if not 0 < self.bw_discount <= 1:
            raise ValueError("bw_discount must be in (0, 1]")
        if self.correction_fraction < 0:
            raise ValueError("correction_fraction must be >= 0")

    def rejection_probability(self, gap: int, bw: int) -> float:
        """p_rej(gap, BW) = min(1, k₁ · gap² · κ(BW))."""
        if gap < 1:
            raise ValueError("gap must be >= 1")
        if bw < 1:
            raise ValueError("bw must be >= 1")
        kappa = self.bw_discount ** (bw - 1)
        return float(min(1.0, self.k1 * gap * gap * kappa))


def _lognormal_factors(rng: np.random.Generator, cv: float, size: int) -> np.ndarray:
    """Unit-mean log-normal multipliers with coefficient of variation cv."""
    if cv == 0:
        return np.ones(size)
    sigma2 = np.log(1.0 + cv * cv)
    mu = -0.5 * sigma2
    return rng.lognormal(mean=mu, sigma=np.sqrt(sigma2), size=size)


class ExtendedPerformanceModel:
    """Monte-Carlo evaluation of the variance/window-aware model.

    Parameters
    ----------
    params:
        The deterministic Section-4 parameters (capacities, operation
        counts, t_comm).
    variability:
        Stochastic and window parameters.
    seed:
        Monte-Carlo seed (estimates are deterministic given it).
    """

    def __init__(
        self,
        params: ModelParams,
        variability: VariabilityParams,
        seed: int = 0,
    ) -> None:
        self.params = params
        self.variability = variability
        self.seed = seed
        self._base = PerformanceModel(params)

    # ------------------------------------------------------------- estimate
    def expected_iteration_time(self, p: int, fw: int, bw: int = 2) -> float:
        """Mean steady-state iteration time at forward window ``fw``.

        ``fw = 0`` is the blocking algorithm (no speculation, waits for
        messages every iteration); ``fw >= 1`` runs the speculative
        pipeline recurrence.
        """
        if fw < 0:
            raise ValueError("fw must be >= 0")
        if p == 1:
            return self._base.t_serial()
        var = self.variability
        rng = np.random.default_rng(self.seed)
        warmup = max(50, MC_ITERATIONS // 10)
        total = MC_ITERATIONS + warmup

        comm = self.params.t_comm(p)
        if fw == 0:
            # Blocking algorithm: its own (compute-balanced) allocation,
            # no speculation overheads; iteration = compute + full wait.
            comp, spec, check = self._base.t_nospec(p) - comm, 0.0, 0.0
        else:  # the bottleneck: the rank with the largest Eq.-8 time
            rank = max(range(p), key=lambda i: self._base.t_spec_rank(p, i))
            spec, comp, check, _ = self._base.spec_terms(p, rank)
        comm_draws = comm * _lognormal_factors(rng, var.comm_cv, total)
        if fw == 0:
            return float(iteration_time(0, comp, comm_draws)[warmup:].mean())
        reject_draws = rng.uniform(size=total)

        finish = 0.0  # F_{t-1}
        arrivals = np.zeros(total)  # A_t
        starts = np.zeros(total)
        for t in range(total):
            gate = arrivals[t - fw] + check if t >= fw else 0.0  # A_{t-FW} + O_v
            starts[t] = start = max(finish, gate)
            arrivals[t] = start + comm_draws[t]
            # Speculation gap: distance from the newest verified input,
            # v = the largest j < t whose messages had arrived by the
            # time this compute started (-1: only the initial state).
            v = next((j for j in range(t - 1, max(t - fw - 1, -1), -1)
                      if arrivals[j] <= start), -1)
            p_rej = var.rejection_probability(max(1, min(t - v, fw)), bw)
            penalty = var.correction_fraction * comp if reject_draws[t] < p_rej else 0.0
            finish = start + spec + comp + check + penalty
        return float((finish - starts[warmup]) / (total - warmup))

    def optimal_fw(self, p: int, bw: int = 2, max_fw: int = 6) -> int:
        """The forward window minimising expected iteration time."""
        if max_fw < 1:
            raise ValueError("max_fw must be >= 1")
        times = {
            fw: self.expected_iteration_time(p, fw, bw) for fw in range(0, max_fw + 1)
        }
        return min(times, key=times.get)

    def window_study(self, p: int, fws=range(0, 5), bws=(1, 2, 3)) -> dict:
        """Expected iteration time over an FW × BW grid."""
        grid = {
            (fw, bw): self.expected_iteration_time(p, fw, bw)
            for fw in fws
            for bw in bws
        }
        return {
            "grid": grid,
            "best": min(grid, key=grid.get),
        }
