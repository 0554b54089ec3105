"""The virtual processor: capacity, mailbox and phase trace of one rank.

:meth:`VirtualProcessor.seconds_for` prices ops at the processor's
capacity, through its :class:`~repro.vm.specs.ProcessorSpec`; the DES
backend's :class:`~repro.engine.loopback.CalendarRunner` charges with
``ProcessorSpec.seconds_for`` directly (the same price, without this
method's frame).
``send`` (asynchronous, PVM-style) and ``recv`` (blocking; the blocked
span is a ``comm`` row of :attr:`VirtualProcessor.trace`) are the
processor's own message API for a program run through
:meth:`Cluster.run <repro.vm.cluster.Cluster.run>`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Hashable, Optional

from repro.des import Store
from repro.trace import PhaseTrace
from repro.vm.message import Message, payload_nbytes
from repro.vm.specs import ProcessorSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.cluster import Cluster


class VirtualProcessor:
    """One simulated processor inside a :class:`~repro.vm.cluster.Cluster`.

    Not constructed directly — the cluster builds one per spec.
    """

    def __init__(self, cluster: "Cluster", rank: int, spec: ProcessorSpec) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.rank = rank
        self.spec = spec
        self.mailbox: Store = Store(cluster.env)
        self.trace = PhaseTrace(rank)

    # ------------------------------------------------------------- compute
    def seconds_for(self, ops: float) -> float:
        """Virtual seconds to execute ``ops`` operations."""
        return self.spec.seconds_for(ops)

    # ----------------------------------------------------------- messaging
    def send(
        self,
        dst: int,
        payload: Any,
        tag: Hashable = None,
        nbytes: Optional[int] = None,
    ) -> None:
        """Asynchronously send ``payload`` to processor ``dst``.

        The network deposits the message in the destination mailbox on
        delivery.  Sending to self is allowed and goes through the
        network like any other message.
        """
        if not 0 <= dst < self.cluster.size:
            raise ValueError(f"invalid destination rank {dst}")
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        msg = Message(self.rank, dst, tag, payload, size, self.env.now)
        mailbox = self.cluster.processors[dst].mailbox

        def _deliver(_: Any) -> None:
            msg.mark_delivered(self.env.now)
            mailbox.put(msg)

        self.cluster.network.transmit(self.rank, dst, size, _deliver)

    def recv(
        self,
        src: Optional[int] = None,
        tag: Hashable = None,
        phase: str = "comm",
        iteration: Optional[int] = None,
    ) -> Generator:
        """Blocking receive; returns the matching :class:`Message`.

        ``src``/``tag`` of None are wildcards.  The blocked span is
        traced as ``phase`` (default "comm" — the paper's
        communication/waiting time).
        """
        start = self.env.now
        # The wildcard receive takes the mailbox's predicate-free path.
        msg: Message = yield self.mailbox.get(
            None if src is None and tag is None else lambda m: m.matches(src, tag)
        )
        self.trace.record(phase, start, self.env.now, iteration)
        if self.env.sanitizer is not None:
            self.env.sanitizer.note(
                f"rank {self.rank}: recv src={msg.src} tag={msg.tag!r} "
                f"blocked [{start:.6g}, {self.env.now:.6g}]"
            )
        return msg

    def __repr__(self) -> str:
        return f"<VirtualProcessor rank={self.rank} {self.spec.name} M={self.spec.capacity:.3g}>"
