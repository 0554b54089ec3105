"""What a DES run may cost in calendar events — an exact counter.

Host seconds per simulated message are what bound the p = 16 sweeps, and
they are mostly calendar events.  The budget: two per message (end of
the endpoint stage, wire completion), one per charge that takes time,
one per receive (the mailbox ``get``), and the rank processes with the
``AllOf`` over them.  No per-message ``Process`` exists.  The four step
counts are pinned so the mechanism cannot regress — or improve —
without this file saying so.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.des import AllOf, Environment
from repro.engine import DESTransport, topology
from repro.engine.core import build_engine
from repro.engine.events import Charge, Recv, Send
from repro.engine.sanitizer import sanitizer_from_env
from repro.harness.toys import ConstantProgram, JumpyProgram
from repro.platforms import wustl_1994
from repro.vm import Cluster

P = 4
PROGRAMS = {
    "constant": lambda: ConstantProgram(
        nprocs=P, iterations=10, block_size=64, ops_per_compute=2e5),
    "jumpy": lambda: JumpyProgram(
        nprocs=P, iterations=10, block_size=64, ops_per_compute=2e5, threshold=0.5),
}
#: (program, fw) -> Environment.step() calls until the run is over.
PINNED = {
    ("constant", 0): 339, ("constant", 1): 409,
    ("jumpy", 0): 339, ("jumpy", 1): 456,
}


class NamingEnvironment(Environment):
    """Remembers the name of every process ever started."""

    def __init__(self) -> None:
        super().__init__()
        self.names: list = []
        # DES-level invariants (event state machine, monotone clock)
        # when CI arms REPRO_SANITIZE.
        self.sanitizer = sanitizer_from_env()

    def process(self, generator, name=None):
        self.names.append(name)
        return super().process(generator, name)


class Tally:
    """An engine whose effect stream is counted on its way out."""

    def __init__(self, engine, counts: Counter) -> None:
        self.engine, self.fw, self.counts = engine, engine.fw, counts

    def run(self):
        gen, response = self.engine.run(), None
        while True:
            try:
                effect = gen.send(response)
            except StopIteration as stop:
                return stop.value
            if not (type(effect) is Charge and effect.ops <= 0):
                self.counts[type(effect)] += 1
            response = yield effect


@pytest.mark.parametrize("name,fw", PINNED)
def test_calendar_events_stay_within_the_budget(name, fw):
    program = PROGRAMS[name]()
    platform = wustl_1994(p=P)
    env = NamingEnvironment()
    cluster = Cluster(platform.specs, network_factory=platform.network_factory, env=env)
    topo, counts = topology(program), Counter()

    def rank_program(proc):
        engine = build_engine(program, proc.rank, topo, fw=fw)
        return DESTransport(proc).drive(Tally(engine, counts))

    done = AllOf(env, cluster.launch(rank_program))
    steps = 0
    while not done.processed:
        env.step()
        steps += 1

    assert counts[Send] == cluster.network.messages_sent == P * (P - 1) * 9
    assert steps <= 2 * counts[Send] + counts[Charge] + counts[Recv] + 2 * P + 1
    assert not [n for n in env.names if n.startswith("xmit-") or n == "bus-transfer"]
    assert env.names == [f"rank{r}" for r in range(P)]
    assert steps == PINNED[name, fw]
