"""Calibrated platform presets.

:data:`WUSTL_1994` reproduces the paper's testbed: 16 SUN/Sparc
workstations (fastest 10× the slowest, linear gradient — the
Section-4 characterisation) on a shared Ethernet under PVM.

Calibration targets (Table 2, 16 processors, 1000 particles, per
iteration): computation ≈ 5.83 s, communication ≈ 4.73 s.  Working
backwards through the cost model:

* computation: each rank takes ``N·(70·N + 12) / ΣM`` seconds with
  ideal balancing, so ``M_1 = N·(70·N+12) / (5.83 · 8.8)`` where 8.8 =
  ΣM/M₁ for the 10:1 linear gradient.  (The resulting ~1.4 M "model
  ops/s" for a 120 MIPS machine reflects early-90s interpreted-PVM
  efficiency; only ratios matter.)
* communication: per FW = 0 iteration, all p ranks broadcast their
  blocks — ``(p−1)·(48·N + 64·p)`` bytes — through the shared medium.
  An effective bus bandwidth of ~175 kB/s plus a 2 ms per-frame
  overhead lands the p = 16 blocked time near 4.73 s.  (Raw 10 Mb/s
  Ethernet was never achievable through PVM's UDP stack; published
  PVM-over-Ethernet numbers are a few hundred kB/s.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.des import Environment
from repro.netsim import (
    BackgroundTraffic,
    BurstyTraffic,
    BusNetwork,
    ConstantLatency,
    Network,
    SharedBus,
    StochasticLatency,
    TransientSpikes,
)
from repro.netsim.latency import LatencyModel, Spike
from repro.vm import Cluster, ProcessorSpec, linear_gradient_specs

#: Paper workload constants used for calibration.
N_REF = 1000
TABLE2_COMP_SECONDS = 5.83
TABLE2_COMM_SECONDS = 4.73
#: ΣM/M1 for 16 processors on a linear 10:1 gradient.
_CAP_SUM_RATIO_16 = sum(1.0 - i * 0.9 / 15.0 for i in range(16))
#: Model operations per particle per iteration (70 per pair + update).
_OPS_PER_PARTICLE = 70.0 * N_REF + 12.0

#: Calibrated capacity of the fastest workstation (model ops / second).
WUSTL_M1 = N_REF * _OPS_PER_PARTICLE / (TABLE2_COMP_SECONDS * _CAP_SUM_RATIO_16)
#: Effective shared-medium bandwidth (bytes / second) under PVM.
WUSTL_BUS_BANDWIDTH = 175e3
#: Per-frame software + MAC overhead (seconds).
WUSTL_FRAME_OVERHEAD = 2e-3
#: Endpoint (protocol stack) latency per message, overlappable.
WUSTL_ENDPOINT_LATENCY = 5e-3


@dataclass
class PlatformConfig:
    """A reproducible cluster recipe (specs + network).

    Calling :meth:`cluster` builds a *fresh* simulation environment
    each time, so successive runs are independent and deterministic.
    """

    name: str
    specs: list[ProcessorSpec]
    network_factory: Callable[[Environment], Network]
    description: str = ""

    @property
    def nprocs(self) -> int:
        """Number of processors in the platform."""
        return len(self.specs)

    def capacities(self) -> list[float]:
        """Per-processor capacities M_i."""
        return [s.capacity for s in self.specs]

    def cluster(self) -> Cluster:
        """Build a fresh :class:`~repro.vm.Cluster` for one run."""
        return Cluster(self.specs, network_factory=self.network_factory)


def wustl_1994(
    p: int = 16,
    jitter_sigma: float = 0.0,
    background_frames_per_s: float = 0.0,
    bursty_traffic: bool = False,
    burst_rate: float = 105.0,
    mean_on: float = 12.0,
    mean_off: float = 35.0,
    spikes: Sequence[Spike] = (),
    seed: int = 0,
) -> PlatformConfig:
    """The calibrated paper testbed, using the fastest ``p`` machines.

    Parameters
    ----------
    p:
        Number of workstations (1–16), fastest first, as in the paper's
        "p-processor execution".
    jitter_sigma:
        Log-normal sigma on per-message endpoint latency (0 = clean,
        deterministic network).
    background_frames_per_s:
        Steady Poisson rate of 1500-byte frames from other Ethernet
        hosts.
    bursty_traffic:
        Additionally superimpose Markov-modulated bursts (another
        host's bulk transfers) — the "excessive but transient delays"
        of Section 3.2 that motivate forward windows > 1.
    burst_rate / mean_on / mean_off:
        Burst shape (frames/s during a burst; mean burst and quiet
        durations in seconds).
    spikes:
        Transient extra delays (the Fig. 4 scenario).
    seed:
        Seed for all stochastic components.
    """
    if not 1 <= p <= 16:
        raise ValueError("the WUSTL testbed has 1..16 workstations")
    specs = linear_gradient_specs(p=16, fastest=WUSTL_M1, ratio=10.0, name_prefix="sparc")[:p]

    def network_factory(env: Environment) -> Network:
        bus = SharedBus(
            env,
            bandwidth=WUSTL_BUS_BANDWIDTH,
            frame_overhead=WUSTL_FRAME_OVERHEAD,
        )
        if background_frames_per_s > 0:
            BackgroundTraffic(
                rate=background_frames_per_s, frame_bytes=1500, seed=seed + 1
            ).attach(bus)
        if bursty_traffic:
            BurstyTraffic(
                base_rate=0.0,
                burst_rate=burst_rate,
                mean_on=mean_on,
                mean_off=mean_off,
                frame_bytes=1500,
                seed=seed + 3,
            ).attach(bus)
        latency: LatencyModel = ConstantLatency(WUSTL_ENDPOINT_LATENCY)
        if spikes:
            latency = TransientSpikes(latency, spikes=tuple(spikes))
        if jitter_sigma > 0:
            latency = StochasticLatency(latency, sigma=jitter_sigma, seed=seed + 2)
        return BusNetwork(env, bus, latency=latency)

    return PlatformConfig(
        name=f"wustl-1994-p{p}",
        specs=specs,
        network_factory=network_factory,
        description=(
            "16 SUN/Sparc workstations (linear 10:1 capacity gradient) on a "
            "shared Ethernet under PVM; calibrated to Table 2 of the paper"
        ),
    )


def two_processor_demo(
    compute_seconds: float = 1.0,
    comm_seconds: float = 1.5,
    spikes: Sequence[Spike] = (),
) -> PlatformConfig:
    """The Fig. 2 / Fig. 4 illustration: two equal processors, one slow
    channel with a fixed message delay.

    One iteration of 1e6 ops (the toy programs' default compute cost)
    takes ``compute_seconds``.
    """
    if compute_seconds <= 0 or comm_seconds <= 0:
        raise ValueError("times must be positive")
    capacity = 1e6 / compute_seconds
    specs = [ProcessorSpec("P1", capacity), ProcessorSpec("P2", capacity)]

    def network_factory(env: Environment) -> Network:
        from repro.netsim import DelayNetwork

        latency: LatencyModel = ConstantLatency(comm_seconds)
        if spikes:
            latency = TransientSpikes(latency, spikes=tuple(spikes))
        return DelayNetwork(env, latency)

    return PlatformConfig(
        name="two-processor-demo",
        specs=specs,
        network_factory=network_factory,
        description="Fig. 2/4 illustration: 2 processors, slow channel",
    )
