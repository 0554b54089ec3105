"""Equations 3–9: iteration time with and without speculation.

Model assumptions (paper, Section 4):

* N variables distributed over the fastest p processors proportionally
  to capacities M_1 >= M_2 >= ... (ideal balancing, Eq. 4–5);
* communication time t_comm(p) equal on all processors and constant
  over iterations;
* with speculation (FW = 1), processor i speculates and checks *all*
  N - N_i remote variables, overlapping (speculation + computation)
  with communication (Eq. 7–8);
* a fraction k of each processor's variables must be recomputed per
  iteration due to speculation errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from repro.partition import largest_remainder_round


@dataclass(frozen=True)
class LinearCommTime:
    """t_comm(p) = base + slope · (p - 1); t_comm(1) is defined as 0.

    The Section-4 study assumes communication time "increases linearly
    with the number of processors used".
    """

    slope: float
    base: float = 0.0

    def __post_init__(self) -> None:
        if self.slope < 0 or self.base < 0:
            raise ValueError("slope and base must be >= 0")

    def __call__(self, p: int) -> float:
        if p < 1:
            raise ValueError("p must be >= 1")
        if p == 1:
            return 0.0
        return self.base + self.slope * (p - 1)


@dataclass(frozen=True)
class ModelParams:
    """Inputs to the performance model (Table 1 of the paper).

    Attributes
    ----------
    n:
        Total number of variables N.
    capacities:
        Processor capacities M_i in ops/second, fastest first.
    f_comp / f_spec / f_check:
        Operations to compute / speculate / check one variable.
    t_comm:
        Callable ``p -> seconds``: communication time per iteration on
        a p-processor run.
    k:
        Fraction of a processor's variables recomputed per iteration
        because of speculation errors (the paper's "% recomputations").
    integer_counts:
        Round the variable allocation to integers (largest remainder)
        instead of using ideal real-valued shares.  The paper's closed
        forms correspond to ``False``.
    allocation:
        ``"compute"`` — the paper's literal Eq. 4–5: balance only the
        computation phase (N_i ∝ M_i).  ``"total"`` — balance the whole
        speculative workload, (N−N_i)(f_spec+f_check) + N_i·f_comp(1+k),
        across processors.

        **Reproduction note**: with the paper's own parameters
        (10:1 linear capacity gradient, f_comp = 100·f_spec =
        50·f_check) the literal ``"compute"`` balancing makes Eq. 8's
        maximum land on the *slowest* processor, which owns ~11 of the
        1000 variables yet must speculate and check the other ~989 at
        one tenth of P1's speed — speculation then *loses* ~45 % at
        p = 16 instead of gaining ~25 %.  The paper calls this
        imbalance "small", which is only true for mild heterogeneity.
        ``"total"`` balancing restores the published Fig. 5 behaviour
        and is what a practitioner would deploy.
    """

    n: int
    capacities: tuple[float, ...]
    f_comp: float
    f_spec: float
    f_check: float
    t_comm: Callable[[int], float]
    k: float = 0.0
    integer_counts: bool = False
    allocation: str = "compute"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        caps = tuple(float(c) for c in self.capacities)
        if not caps:
            raise ValueError("need at least one capacity")
        if any(c <= 0 for c in caps):
            raise ValueError("capacities must be positive")
        if any(a < b for a, b in zip(caps, caps[1:])) and caps != tuple(sorted(caps, reverse=True)):
            raise ValueError("capacities must be sorted fastest first")
        object.__setattr__(self, "capacities", caps)
        if min(self.f_comp, self.f_spec, self.f_check) < 0:
            raise ValueError("operation counts must be >= 0")
        if not 0 <= self.k <= 1:
            raise ValueError("k must be in [0, 1]")
        if self.allocation not in ("compute", "total"):
            raise ValueError(f"unknown allocation mode {self.allocation!r}")

    @property
    def max_procs(self) -> int:
        """Largest p the parameter set supports."""
        return len(self.capacities)


class PerformanceModel:
    """Evaluates Eq. 3–9 and the derived speedup curves."""

    def __init__(self, params: ModelParams) -> None:
        self.params = params

    # ------------------------------------------------------------ helpers
    def allocation(self, p: int) -> list[float]:
        """Variables per processor N_i on a p-processor run.

        ``allocation="compute"`` balances the compute phase only
        (Eq. 4–5); ``"total"`` balances the full speculative workload
        (see :class:`ModelParams`).
        """
        pr = self.params
        if not 1 <= p <= pr.max_procs:
            raise ValueError(f"p must be in [1, {pr.max_procs}]")
        caps = pr.capacities[:p]
        if pr.allocation == "total" and p > 1:
            counts = self._total_balanced(pr.n, caps)
        else:
            total = sum(caps)
            counts = [pr.n * c / total for c in caps]
        if pr.integer_counts:
            return [float(c) for c in largest_remainder_round(counts)]
        return counts

    def _total_balanced(self, n: int, caps: Sequence[float]) -> list[float]:
        """N_i equalising per-processor speculative workload.

        Solves ``(n·a + N_i·(b−a)) / M_i = λ`` with ``Σ N_i = n``, where
        a = f_spec + f_check and b = f_comp·(1+k); processors too slow
        to receive any variables (negative solution) are clamped to 0
        and the remainder redistributed.
        """
        pr = self.params
        a = pr.f_spec + pr.f_check
        b = pr.f_comp * (1.0 + pr.k)
        if b <= a:
            # Compute is cheaper than spec+check per variable: giving a
            # processor fewer variables does not reduce its load, so
            # fall back to capacity-proportional shares.
            total = sum(caps)
            return [n * c / total for c in caps]
        counts = [0.0] * len(caps)
        active = list(range(len(caps)))
        while True:
            sum_m = sum(caps[i] for i in active)
            lam = n * ((b - a) + len(active) * a) / sum_m
            trial = {i: (lam * caps[i] - n * a) / (b - a) for i in active}
            negatives = [i for i, v in trial.items() if v < 0]
            if not negatives:
                for i, v in trial.items():
                    counts[i] = v
                return counts
            worst = min(negatives, key=lambda i: trial[i])
            active.remove(worst)
            if not active:  # pragma: no cover - cannot happen for n >= 1
                raise RuntimeError("no processor can hold any variable")

    # ---------------------------------------------------------- equations
    def t_serial(self) -> float:
        """Eq. 3: single-processor iteration time on P1."""
        pr = self.params
        return pr.n * pr.f_comp / pr.capacities[0]

    def t_nospec(self, p: int) -> float:
        """Eq. 6: iteration time without speculation (max over ranks)."""
        pr = self.params
        if p == 1:
            return self.t_serial()
        counts = self.allocation(p)
        comp = max(
            n_i * pr.f_comp / m_i for n_i, m_i in zip(counts, pr.capacities[:p])
        )
        return comp + pr.t_comm(p)

    def spec_terms(self, p: int, i: int) -> tuple[float, float, float, float]:
        """Eq. 8's work terms on processor i (0-based), in seconds:
        ``(spec, comp, check, correct)`` — speculating the N - N_i
        remote variables, computing the N_i own ones, checking the
        remote ones, and recomputing the fraction k of the own ones."""
        pr = self.params
        n_i = self.allocation(p)[i]
        m_i = pr.capacities[i]
        remote = pr.n - n_i
        return (
            remote * pr.f_spec / m_i,
            n_i * pr.f_comp / m_i,
            remote * pr.f_check / m_i,
            pr.k * n_i * pr.f_comp / m_i,
        )

    def t_spec_rank(self, p: int, i: int) -> float:
        """Eq. 8: iteration time with speculation on processor i (0-based),
        ``max(spec + comp, t_comm) + check + correct``.

        A processor allocated zero variables (possible under ``"total"``
        balancing with strong heterogeneity) computes nothing, hence
        speculates and checks nothing: it is idle and contributes 0.
        """
        if self.allocation(p)[i] == 0.0:
            return 0.0
        spec, comp, check, correct = self.spec_terms(p, i)
        return max(spec + comp, self.params.t_comm(p)) + check + correct

    def t_spec(self, p: int) -> float:
        """Eq. 9: iteration time with speculation (max over processors)."""
        if p == 1:
            return self.t_serial()
        return max(self.t_spec_rank(p, i) for i in range(p))

    # ----------------------------------------------------------- speedups
    def speedup_nospec(self, p: int) -> float:
        """Speedup of the blocking algorithm relative to P1."""
        return self.t_serial() / self.t_nospec(p)

    def speedup_spec(self, p: int) -> float:
        """Speedup of the speculative algorithm relative to P1."""
        return self.t_serial() / self.t_spec(p)

    def speedup_max(self, p: int) -> float:
        """Σ_{i<=p} M_i / M_1: best possible on this processor set."""
        caps = self.params.capacities[:p]
        return sum(caps) / caps[0]

    # ------------------------------------------------------------- curves
    def speedup_curves(self, p_values: Sequence[int] | None = None) -> dict[str, list[float]]:
        """The Fig. 5 dataset: speedups vs p for all three curves."""
        if p_values is None:
            p_values = range(1, self.params.max_procs + 1)
        ps = list(p_values)
        return {
            "p": [float(p) for p in ps],
            "no_speculation": [self.speedup_nospec(p) for p in ps],
            "speculation": [self.speedup_spec(p) for p in ps],
            "maximum": [self.speedup_max(p) for p in ps],
        }

    def error_sensitivity(self, p: int, k_values: Sequence[float]) -> dict[str, list[float]]:
        """The Fig. 6 dataset: speedup at fixed p as k varies."""
        spec = []
        for k in k_values:
            model = PerformanceModel(replace(self.params, k=k))
            spec.append(model.speedup_spec(p))
        nospec = self.speedup_nospec(p)
        return {
            "k": [float(k) for k in k_values],
            "speculation": spec,
            "no_speculation": [nospec] * len(spec),
        }

    def crossover_k(self, p: int, tol: float = 1e-9) -> float:
        """The k at which speculation stops paying off at p processors.

        Found by bisection on ``t_spec(p; k) - t_nospec(p)``; returns
        ``1.0`` if speculation wins even at k = 1.
        """
        target = self.t_nospec(p)

        def gain(k: float) -> float:
            return target - PerformanceModel(replace(self.params, k=k)).t_spec(p)

        if gain(1.0) >= 0:
            return 1.0
        if gain(0.0) <= 0:
            return 0.0
        lo, hi = 0.0, 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if gain(mid) > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def section4_params(
    n: int = 1000,
    p_max: int = 16,
    fastest: float = 120e6,
    ratio: float = 10.0,
    f_comp: float = 7000.0,
    k: float = 0.02,
    allocation: str = "total",
) -> ModelParams:
    """The parameter study of Section 4 (used for Fig. 5 and Fig. 6).

    * capacities fall linearly with M_1 = ``ratio`` × M_{p_max};
    * f_comp = 100 · f_spec = 50 · f_check;
    * t_comm(p) grows linearly in p and equals the computation time per
      iteration at p = p_max.

    ``allocation`` defaults to ``"total"`` because the paper's literal
    compute-only balancing (``"compute"``) contradicts its own Fig. 5
    at this heterogeneity — see :class:`ModelParams` for the analysis.
    """
    caps = tuple(
        fastest - i * (fastest - fastest / ratio) / (p_max - 1) for i in range(p_max)
    )
    f_spec = f_comp / 100.0
    f_check = f_comp / 50.0
    # Computation time per iteration at p_max with ideal balancing:
    # every rank takes N f_comp / sum(M).
    comp_at_pmax = n * f_comp / sum(caps)
    t_comm = LinearCommTime(slope=comp_at_pmax / (p_max - 1))
    return ModelParams(
        n=n,
        capacities=caps,
        f_comp=f_comp,
        f_spec=f_spec,
        f_check=f_check,
        t_comm=t_comm,
        k=k,
        allocation=allocation,
    )
