"""What a DES run may cost in calendar events — an exact counter.

Host seconds per simulated message are what bound the p = 16 sweeps, and
they are mostly calendar events.  The budget: two per message (end of
the endpoint stage, wire completion), one per charge that takes time,
one per receive (the rank's wake), one start per rank and one end of
run.  No ``Process`` exists, per message or per rank.  The four step
counts are pinned so the mechanism cannot regress — or improve —
without this file saying so.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import api
from repro.api import RunConfig
from repro.des import Environment
from repro.engine.events import Charge, Recv, Send
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
    ("constant", 0): 335, ("constant", 1): 405,
    ("jumpy", 0): 335, ("jumpy", 1): 452,
}


class NamingEnvironment(Environment):
    """Counts its steps and remembers the name of every process ever
    started."""

    def __init__(self) -> None:
        super().__init__()
        self.names: list = []
        self.steps = 0

    def process(self, generator, name=None):
        self.names.append(name)
        return super().process(generator, name)

    def step(self):
        self.steps += 1
        super().step()


class Tally:
    """An engine whose effect stream is counted on its way out."""

    def __init__(self, engine, counts: Counter) -> None:
        self.engine, self.fw, self.counts = engine, engine.fw, counts
        self.stats = engine.stats

    def run(self, observer):
        gen, response = self.engine.run(observer), None
        while True:
            try:
                effect = gen.send(response)
            except StopIteration as stop:
                return stop.value
            if not (type(effect) is Charge and effect.ops <= 0):
                self.counts[type(effect)] += 1
            response = yield effect


@pytest.mark.parametrize("name,fw", PINNED)
def test_calendar_events_stay_within_the_budget(name, fw, monkeypatch):
    platform = wustl_1994(p=P)
    env = NamingEnvironment()
    cluster = Cluster(platform.specs, network_factory=platform.network_factory, env=env)
    counts = Counter()
    build = api.rank_engine
    monkeypatch.setattr(api, "rank_engine", lambda *args: Tally(build(*args), counts))

    # The run arms the sanitizer when CI sets REPRO_SANITIZE.
    api.run(RunConfig(PROGRAMS[name](), backend="des", fw=fw, cluster=cluster))

    assert counts[Send] == cluster.network.messages_sent == P * (P - 1) * 9
    assert env.steps <= 2 * counts[Send] + counts[Charge] + counts[Recv] + P + 1
    assert env.names == []  # a DES run starts no process
    assert env.steps == PINNED[name, fw]
