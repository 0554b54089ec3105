"""Cluster: processors + network + program launching."""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

from repro.des import AllOf, Environment, Process
from repro.netsim.network import DelayNetwork, Network
from repro.vm.processor import VirtualProcessor
from repro.vm.specs import ProcessorSpec


ProgramFactory = Callable[[VirtualProcessor], Generator]


class Cluster:
    """A set of virtual processors sharing one network.

    Parameters
    ----------
    specs:
        Per-processor capacity specs, fastest first (paper convention).
    network_factory:
        Callable ``env -> Network``; defaults to a zero-latency
        :class:`~repro.netsim.network.DelayNetwork`.
    env:
        Supply an environment to share it with other simulation
        components; otherwise a fresh one is created.

    Examples
    --------
    >>> from repro.vm import Cluster, uniform_specs
    >>> cluster = Cluster(uniform_specs(2, capacity=1e6))
    >>> def program(proc):
    ...     yield proc.env.timeout(proc.seconds_for(2e6))
    ...     return proc.env.now
    >>> results = cluster.run(program)
    >>> results[0]
    2.0
    """

    def __init__(
        self,
        specs: Sequence[ProcessorSpec],
        network_factory: Optional[Callable[[Environment], Network]] = None,
        env: Optional[Environment] = None,
    ) -> None:
        if not specs:
            raise ValueError("cluster needs at least one processor")
        self.env = env if env is not None else Environment()
        self.network: Network = (
            network_factory(self.env) if network_factory else DelayNetwork(self.env)
        )
        self.specs = list(specs)
        self.processors: list[VirtualProcessor] = [
            VirtualProcessor(self, rank=i, spec=spec) for i, spec in enumerate(specs)
        ]

    @property
    def size(self) -> int:
        """Number of processors."""
        return len(self.processors)

    def capacities(self) -> list[float]:
        """Per-processor capacities M_i."""
        return [s.capacity for s in self.specs]

    def launch(self, program: ProgramFactory) -> list[Process]:
        """Start ``program(proc)`` on every processor (without running)."""
        return [
            self.env.process(program(proc), name=f"rank{proc.rank}")
            for proc in self.processors
        ]

    def run(self, program: ProgramFactory, until: Optional[float] = None) -> list:
        """Launch ``program`` on all ranks, run to completion, return values.

        Parameters
        ----------
        program:
            ``proc -> generator``; its return value is collected.
        until:
            Optional virtual-time cap; raises if programs have not
            finished by then.

        Returns
        -------
        List of per-rank return values, rank order.
        """
        procs = self.launch(program)
        done = AllOf(self.env, procs)
        if until is None:
            self.env.run(until=done)
        else:
            self.env.run(until=until)
            if not done.triggered:
                raise TimeoutError(
                    f"programs still running at virtual time {until}"
                )
        return [p.value for p in procs]

    def __repr__(self) -> str:
        return f"<Cluster p={self.size} network={type(self.network).__name__}>"
